// Per-PE task pool with dynamic priorities (Hudak §3.2, §5.2).
//
// "each [PE] maintains a list taskpool(i) of all reduction tasks whose
// destination resides on that PE". Tasks are held in three priority buckets
// (3 = vital, 2 = eager, 1 = reserve); the PE always serves the highest
// non-empty bucket, which is how vital tasks outcompete eager ones when
// resources are limited. The restructuring phase moves tasks between buckets
// (reprioritize) and deletes irrelevant ones (expunge).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "core/controller.h"
#include "core/task.h"
#include "util/assert.h"
#include "util/rng.h"

namespace dgr {

class TaskPool {
 public:
  void push(Task t) {
    const int b = bucket(t.pool_prior);
    buckets_[b].push_back(std::move(t));
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Pop from the highest-priority non-empty bucket. `rng`, when provided,
  // picks a random element within the bucket (interleaving coverage in the
  // simulator); otherwise FIFO.
  Task pop(Rng* rng = nullptr) {
    DGR_CHECK(size_ > 0);
    for (int b = 2; b >= 0; --b) {
      auto& q = buckets_[b];
      if (q.empty()) continue;
      std::size_t i = 0;
      if (rng && q.size() > 1) i = rng->below(q.size());
      Task t = std::move(q[i]);
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
      --size_;
      return t;
    }
    DGR_CHECK(false);
    return Task{};
  }

  // Delete all tasks satisfying `kill`; returns how many were expunged.
  // One stable pass per bucket: survivors keep their order.
  std::size_t expunge(const std::function<bool(const Task&)>& kill) {
    std::size_t n = 0;
    for (auto& q : buckets_) n += std::erase_if(q, kill);
    size_ -= n;
    return n;
  }

  // Recompute each task's priority; returns how many tasks moved buckets.
  // One stable pass per bucket; the movers are appended to their new buckets
  // afterwards, in bucket-then-queue order.
  std::size_t reprioritize(
      const std::function<std::uint8_t(const Task&)>& prio) {
    std::vector<Task> moving;
    for (int b = 0; b < 3; ++b) {
      auto& q = buckets_[b];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < q.size(); ++i) {
        q[i].pool_prior = prio(q[i]);
        if (bucket(q[i].pool_prior) != b) {
          moving.push_back(std::move(q[i]));
          continue;
        }
        if (keep != i) q[keep] = std::move(q[i]);
        ++keep;
      }
      q.resize(keep);
    }
    for (Task& t : moving) {
      buckets_[bucket(t.pool_prior)].push_back(std::move(t));
    }
    return moving.size();
  }

  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& q : buckets_)
      for (const Task& t : q) fn(t);
  }

 private:
  static int bucket(std::uint8_t prior) {
    if (prior >= 3) return 2;
    if (prior == 2) return 1;
    return 0;
  }
  std::deque<Task> buckets_[3];
  std::size_t size_ = 0;
};

// One engine's reduction-task pools, one per PE, behind one lock — and the
// three EngineHooks that walk them (collect / expunge / reprioritize). An
// engine whose unexecuted reduction tasks all sit in its pools inherits the
// hooks as they are; SimEngine extends them with its in-flight messages.
class PoolSet : public EngineHooks {
 public:
  explicit PoolSet(std::uint32_t num_pes) : pools_(num_pes) {}

  void collect_task_refs(std::vector<TaskRef>& out) override {
    std::lock_guard<std::mutex> lk(pools_mu_);
    for (const TaskPool& p : pools_)
      p.for_each([&](const Task& t) { out.push_back(TaskRef{t.s, t.d}); });
  }

  std::size_t expunge_tasks(
      const std::function<bool(const Task&)>& kill) override {
    std::lock_guard<std::mutex> lk(pools_mu_);
    std::size_t n = 0;
    for (TaskPool& p : pools_) n += p.expunge(kill);
    return n;
  }

  std::size_t reprioritize_tasks(
      const std::function<std::uint8_t(const Task&)>& prio) override {
    std::lock_guard<std::mutex> lk(pools_mu_);
    std::size_t n = 0;
    for (TaskPool& p : pools_) n += p.reprioritize(prio);
    return n;
  }

 protected:
  // Queue `t` in its destination PE's pool.
  void pool_push(Task t) {
    std::lock_guard<std::mutex> lk(pools_mu_);
    pools_[t.d.pe].push(std::move(t));
  }
  // Unlocked access, for an owner that is the only thread touching the pools
  // (the simulator's scheduler).
  TaskPool& pool_at(PeId pe) { return pools_[pe]; }
  const TaskPool& pool_at(PeId pe) const { return pools_[pe]; }

 private:
  std::mutex pools_mu_;
  std::vector<TaskPool> pools_;
};

}  // namespace dgr
