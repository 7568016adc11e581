// Unbounded multi-producer multi-consumer queue used for PE run queues and
// socket out-queues.
//
// A mutex+condvar design is deliberately chosen over a lock-free ring: PE
// run queues in this system carry coarse task messages (hundreds of ns of work
// each), so queue overhead is not the bottleneck, and blocking pop with
// shutdown semantics keeps the engine simple and correct.
//
// Priority order: the queue holds K FIFO buckets behind its one mutex, and an
// ordering rule `Order` maps each pushed item to a bucket. Every pop drains
// the lowest-indexed non-empty bucket first; within a bucket items leave in
// push order. K = 1 with the default rule is a plain FIFO, which is what the
// socket out-queues use. ThreadEngine's run queues use K = 4
// with core/task.h's mark_order, so the strongest marks run first. Depth,
// high-water and wake-ups count across all buckets.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace dgr {

// The default ordering rule: everything in bucket 0 (plain FIFO).
template <typename T>
std::size_t single_bucket(const T&) {
  return 0;
}

template <typename T, std::size_t K = 1,
          std::size_t (*Order)(const T&) = &single_bucket<T>>
class MpmcQueue {
  static_assert(K >= 1, "a queue needs at least one bucket");

 public:
  // The bucket storage itself, without lock, condvar or gauges: the queue
  // keeps one behind its mutex, and a single-threaded owner (a dgr_worker's
  // local run queue) uses one directly, so both pop in the same order.
  class Buckets {
   public:
    void push(T item) {
      const std::size_t b = Order(item);
      DGR_ASSERT(b < K);
      q_[b].push_back(std::move(item));
      ++size_;
      if (b < low_) low_ = b;
    }

    // Pop up to `max_n` items, lowest bucket first, appending to `out`.
    // Returns how many were taken (0 when empty).
    std::size_t pop_up_to(std::size_t max_n, std::vector<T>& out) {
      std::size_t n = 0;
      while (n < max_n && size_ > 0) {
        std::deque<T>& d = q_[low_];
        if (d.empty()) {
          ++low_;
          continue;
        }
        out.push_back(std::move(d.front()));
        d.pop_front();
        --size_;
        ++n;
      }
      return n;
    }

    // Pop the front of the lowest non-empty bucket (requires !empty()).
    T pop() {
      DGR_ASSERT(size_ > 0);
      while (q_[low_].empty()) ++low_;
      T item = std::move(q_[low_].front());
      q_[low_].pop_front();
      --size_;
      return item;
    }

    void clear() {
      for (std::deque<T>& d : q_) d.clear();
      size_ = 0;
      low_ = 0;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:

    std::array<std::deque<T>, K> q_;
    std::size_t size_ = 0;
    // No bucket below low_ holds an item: pops start their scan here.
    std::size_t low_ = 0;
  };

  void push(T item) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      q_.push(std::move(item));
      note_push();
    }
    cv_.notify_one();
  }

  // Push a whole batch under one lock; `items` is left empty, its capacity
  // kept for the caller to refill.
  void push_all(std::vector<T>& items) {
    if (items.empty()) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (T& item : items) q_.push(std::move(item));
      note_push();
    }
    items.clear();
    cv_.notify_all();
  }

  // Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lk(mu_);
    if (q_.empty()) return std::nullopt;
    T item = q_.pop();
    size_.store(q_.size(), std::memory_order_relaxed);
    return item;
  }

  // Pop up to `max_n` items under one lock, appending to `out` in queue
  // order. Returns how many were taken (0 when empty).
  std::size_t pop_up_to(std::size_t max_n, std::vector<T>& out) {
    std::lock_guard<std::mutex> lk(mu_);
    const std::size_t n = q_.pop_up_to(max_n, out);
    size_.store(q_.size(), std::memory_order_relaxed);
    return n;
  }

  // Timed blocking variant of pop_up_to: waits up to `timeout` for the queue
  // to become non-empty (or closed), then drains like pop_up_to. Lets an
  // idle consumer park on the condvar instead of spin-polling — on a
  // single-core host a polling loop steals the timeslice from the very
  // producer it is waiting on.
  template <typename Rep, typename Period>
  std::size_t pop_up_to_wait(std::size_t max_n, std::vector<T>& out,
                             std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, timeout, [&] { return !q_.empty() || closed_; });
    const std::size_t n = q_.pop_up_to(max_n, out);
    size_.store(q_.size(), std::memory_order_relaxed);
    return n;
  }

  // Blocking pop; returns nullopt once the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return std::nullopt;
    T item = q_.pop();
    size_.store(q_.size(), std::memory_order_relaxed);
    return item;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }

  // Lock-free depth gauge, maintained by every push/pop under the lock.
  // Hot-path readers (backpressure probes, steal scans) poll peers' depths
  // constantly; taking the queue mutex for each probe would contend with
  // the owner's drain on the very queue being probed. Racy by design: a
  // stale read only mis-times a heuristic, never breaks queue correctness.
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  bool empty() const { return size() == 0; }

  // Deepest backlog seen right after a push (lock-free read, like size()).
  std::size_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  // Under mu_ after a push: publish the depth and raise the high-water mark.
  // Only lock holders write either gauge, so plain load/store pairs suffice.
  void note_push() {
    const std::size_t depth = q_.size();
    size_.store(depth, std::memory_order_relaxed);
    if (depth > high_water_.load(std::memory_order_relaxed))
      high_water_.store(depth, std::memory_order_relaxed);
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Buckets q_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> high_water_{0};
  bool closed_ = false;
};

}  // namespace dgr
