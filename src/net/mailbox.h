// Per-PE mailbox for the threaded engine: serialized task messages with
// traffic counters.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/mpmc_queue.h"

namespace dgr {

class Mailbox {
 public:
  using Bytes = std::vector<std::uint8_t>;

  void deliver(Bytes msg) {
    bytes_in_.fetch_add(msg.size(), std::memory_order_relaxed);
    msgs_in_.fetch_add(1, std::memory_order_relaxed);
    q_.push(std::move(msg));
  }

  // Deliver a whole batch under one queue lock; the counters update once per
  // batch instead of once per message.
  void deliver_batch(std::vector<Bytes> msgs) {
    if (msgs.empty()) return;
    std::uint64_t bytes = 0;
    for (const Bytes& m : msgs) bytes += m.size();
    bytes_in_.fetch_add(bytes, std::memory_order_relaxed);
    msgs_in_.fetch_add(msgs.size(), std::memory_order_relaxed);
    q_.push_all(msgs);
  }

  std::optional<Bytes> try_receive() { return q_.try_pop(); }
  std::optional<Bytes> receive() { return q_.pop(); }

  // Pop up to `max_n` pending messages under one queue lock, appending to
  // `out` in delivery order. Returns how many were taken.
  std::size_t drain(std::size_t max_n, std::vector<Bytes>& out) {
    return q_.pop_up_to(max_n, out);
  }

  // Like drain, but parks on the queue condvar for up to `timeout_us` when
  // empty. Idle PE threads use this instead of a yield loop.
  std::size_t drain_wait(std::size_t max_n, std::vector<Bytes>& out,
                         std::uint64_t timeout_us) {
    return q_.pop_up_to_wait(max_n, out, std::chrono::microseconds(timeout_us));
  }

  void close() { q_.close(); }
  std::size_t pending() const { return q_.size(); }

  std::uint64_t messages_received() const {
    return msgs_in_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_received() const {
    return bytes_in_.load(std::memory_order_relaxed);
  }
  // Deepest backlog observed at delivery time.
  std::uint64_t high_water() const { return q_.high_water(); }

 private:
  MpmcQueue<Bytes> q_;
  std::atomic<std::uint64_t> msgs_in_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
};

}  // namespace dgr
