// Per-PE mailbox for the threaded engine's channel plane: the frames the
// fault plane delivered toward one PE, in delivery order.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/mpmc_queue.h"

namespace dgr {

class Mailbox {
 public:
  using Bytes = std::vector<std::uint8_t>;

  void deliver(Bytes msg) { q_.push(std::move(msg)); }

  // Deliver a whole batch under one queue lock.
  void deliver_batch(std::vector<Bytes> msgs) { q_.push_all(msgs); }

  std::optional<Bytes> try_receive() { return q_.try_pop(); }

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

  // Deepest backlog observed at delivery time.
  std::uint64_t high_water() const { return q_.high_water(); }

 private:
  MpmcQueue<Bytes> q_;
};

}  // namespace dgr
