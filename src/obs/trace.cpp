#include "obs/trace.h"

namespace dgr::obs {

TraceBuffer::TraceBuffer(std::size_t capacity)
    : ring_(capacity ? capacity : 1) {}

void TraceBuffer::set_clock(Clock c) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_ = std::move(c);
}

void TraceBuffer::emit(EventType type, Plane plane, std::uint16_t pe,
                       std::uint64_t cycle, std::uint64_t a, std::uint64_t b) {
  std::lock_guard<std::mutex> lk(mu_);
  TraceEvent& e = ring_[next_];
  e.ts = clock_ ? clock_() : 0;
  e.cycle = cycle;
  e.a = a;
  e.b = b;
  e.type = type;
  e.plane = plane;
  e.pe = pe;
  next_ = (next_ + 1) % ring_.size();
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    ++dropped_;
  }
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TraceEvent> out;
  out.reserve(count_);
  // Oldest surviving event sits at next_ when the ring is full, else at 0.
  const std::size_t start =
      count_ == ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < count_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

std::size_t TraceBuffer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return count_;
}

std::uint64_t TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

void TraceBuffer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  next_ = 0;
  count_ = 0;
  dropped_ = 0;
}

}  // namespace dgr::obs
