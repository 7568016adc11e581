// Structured trace ring buffer for marking-cycle observability.
//
// The controller, marker and mutator emit typed events (cycle start/end,
// plane begin/done, wave-front advance, rescue activity, restructuring
// actions, cooperation taints) into a bounded ring. Timestamps come from an
// engine-supplied clock: sim steps on the deterministic engine (so traces are
// byte-reproducible per seed) and microseconds on the threaded engine.
// Exporters (obs/export.h) turn a snapshot into JSONL or Chrome trace_event
// JSON — see docs/OBSERVABILITY.md for the taxonomy and how to read a cycle.
//
// Emission sites use the DGR_TRACE_EVENT macro, which compiles to nothing
// under -DDGR_TRACE=OFF (DGR_TRACE_ENABLED=0): the disabled build references
// no obs trace symbols (asserted by the `obs_trace_compiled_out` ctest).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "graph/vertex.h"
#include "obs/schema.h"

#ifndef DGR_TRACE_ENABLED
#define DGR_TRACE_ENABLED 1
#endif

#if DGR_TRACE_ENABLED
#define DGR_TRACE_EVENT(sink, ...)           \
  do {                                       \
    if (sink) (sink)->emit(__VA_ARGS__);     \
  } while (0)
#else
// sizeof keeps the arguments "used" (no -Wunused warnings at call sites)
// without evaluating them or referencing any symbol in the object file.
#define DGR_TRACE_EVENT(sink, ...)              \
  do {                                          \
    (void)sizeof((void)(sink), __VA_ARGS__, 0); \
  } while (0)
#endif

namespace dgr::obs {

struct TraceEvent {
  std::uint64_t ts = 0;     // engine clock (sim steps / µs)
  std::uint64_t cycle = 0;  // marking-cycle number; 0 = not cycle-scoped
  std::uint64_t a = 0;      // payload (see DGR_OBS_EVENTS, obs/schema.h)
  std::uint64_t b = 0;
  EventType type = EventType::kCycleStart;
  Plane plane = Plane::kR;
  std::uint16_t pe = 0;  // track attribution

  bool operator==(const TraceEvent&) const = default;
};

// A synthetic event recording that `ring_dropped` events were overwritten in
// the source ring and `omitted` more fell past the telemetry payload cap
// before this point in the stream. Emitted by the cluster merger (and usable
// by any exporter) so drop accounting rides the normal event path — inline
// because it's pure struct assembly, safe under -DDGR_TRACE=OFF.
inline TraceEvent make_drop_event(std::uint64_t ts, std::uint64_t cycle,
                                  std::uint16_t pe, std::uint64_t ring_dropped,
                                  std::uint64_t omitted) {
  TraceEvent e;
  e.ts = ts;
  e.cycle = cycle;
  e.a = ring_dropped;
  e.b = omitted;
  e.type = EventType::kTraceDrop;
  e.pe = pe;
  return e;
}

class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1 << 14);

  // Engine clock; defaults to 0 until set.
  using Clock = std::function<std::uint64_t()>;
  void set_clock(Clock c);

  void emit(EventType type, Plane plane, std::uint16_t pe, std::uint64_t cycle,
            std::uint64_t a = 0, std::uint64_t b = 0);

  // Events in emission order (oldest surviving first).
  std::vector<TraceEvent> snapshot() const;

  std::size_t size() const;
  std::size_t capacity() const { return ring_.size(); }
  // Events overwritten because the ring wrapped.
  std::uint64_t dropped() const;
  void clear();

 private:
  mutable std::mutex mu_;
  Clock clock_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;     // next write position
  std::size_t count_ = 0;    // valid events (≤ capacity)
  std::uint64_t dropped_ = 0;
};

}  // namespace dgr::obs
