// Per-PE metrics registry — the single home for runtime counters and
// histograms, shared by both engines (replacing the ad-hoc SimMetrics /
// ThreadEngineStats counter fields).
//
// Design: one cache-line-aligned slot per PE holding relaxed atomic counters
// plus log-bucketed histograms behind a per-slot spinlock. Increments are a
// single relaxed fetch_add on the owner's line — no shared lock, no false
// sharing between PEs — so the registry is cheap enough to stay enabled in
// benches (the observability prerequisite for optimizing what we measure).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/schema.h"
#include "util/stats.h"

namespace dgr::obs {

class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::uint32_t num_pes);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  std::uint32_t num_pes() const {
    return static_cast<std::uint32_t>(slots_.size());
  }

  void add(std::uint32_t pe, Counter c, std::uint64_t n = 1) noexcept {
    slots_[pe].c[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t get(std::uint32_t pe, Counter c) const noexcept {
    return slots_[pe].c[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

  std::uint64_t total(Counter c) const noexcept;

  // Histogram observation; per-slot spinlock (uncontended in both engines:
  // each PE observes only its own slot).
  void observe(std::uint32_t pe, Hist h, double v) noexcept;
  // Fold a raw log-bucket delta into a slot's histogram — the receive side
  // of the cluster telemetry plane (net/proto.h TelemetryMsg::HistDelta).
  void merge_hist_bucket(std::uint32_t pe, Hist h, std::uint32_t bucket,
                         std::uint64_t n, double max_hint) noexcept;
  // Consistent copy of one histogram (merges nothing; single slot).
  Histogram hist(std::uint32_t pe, Hist h) const;
  // All PEs' histograms for `h` merged.
  Histogram merged_hist(Hist h) const;

  void reset();

  // Deterministic JSON object: {"num_pes":N,"totals":{...},"pes":[...]}.
  // Histograms export count/p50/p99/p999/max.
  std::string to_json() const;

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, kNumCounters> c{};
    mutable std::atomic_flag hist_lock = ATOMIC_FLAG_INIT;
    std::array<Histogram, kNumHists> h;
  };
  std::vector<Slot> slots_;
};

// ---- Live health rollup (dgr_run --stats N) ----
//
// A HealthSnapshot is one sampling window's worth of registry deltas plus
// engine-side facts the registry doesn't know (cycle count, worker liveness).
// The emitters are pure formatting functions so both engines — and the unit
// tests — share one rendering of the rollup.
struct HealthSnapshot {
  std::uint64_t cycle = 0;          // cycles completed so far
  std::uint64_t cycles_window = 0;  // cycles in this window
  double window_ms = 0.0;           // wall-clock of the window
  std::uint64_t marks = 0;          // mark+return tasks this window
  std::uint64_t remote_msgs = 0;    // remote messages this window
  std::uint64_t local_msgs = 0;     // local messages this window
  std::uint64_t retransmits = 0;    // channel retransmits this window
  std::uint64_t stall_ops = 0;      // timed mutator ops so far (cumulative)
  double stall_p99_us = 0.0;        // mutator_stall_us p99 (cumulative hist)
  std::uint64_t telemetry_dropped = 0;  // cumulative (cluster runs)
  std::uint32_t workers_live = 0;   // connected workers (0 = in-process run)
  std::uint32_t workers_total = 0;
};

// One-line human form:
//   cycle 40 | 12.3 ms/cycle | 81k marks/s | remote 34.2% | retx 3 | workers 4/4
std::string health_line(const HealthSnapshot& s);
// One-object machine form (JSONL row).
std::string health_jsonl(const HealthSnapshot& s);

}  // namespace dgr::obs
