#include "obs/metrics.h"

#include <cstdio>
#include <thread>

#include "obs/json.h"

namespace dgr::obs {

namespace {

// Spin briefly with pause, then fall back to yield: a bare test_and_set
// loop on a host with fewer cores than threads can burn a whole scheduler
// quantum while the lock holder is descheduled.
template <typename Slot>
void hist_lock_acquire(Slot& s) {
  std::uint32_t spins = 0;
  while (s.hist_lock.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__)
    if (++spins < 64) {
      __builtin_ia32_pause();
      continue;
    }
#endif
    std::this_thread::yield();
  }
}

}  // namespace

MetricsRegistry::MetricsRegistry(std::uint32_t num_pes)
    : slots_(num_pes ? num_pes : 1) {}

std::uint64_t MetricsRegistry::total(Counter c) const noexcept {
  std::uint64_t n = 0;
  for (const Slot& s : slots_)
    n += s.c[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  return n;
}

void MetricsRegistry::observe(std::uint32_t pe, Hist h, double v) noexcept {
  Slot& s = slots_[pe];
  hist_lock_acquire(s);
  s.h[static_cast<std::size_t>(h)].add(v);
  s.hist_lock.clear(std::memory_order_release);
}

void MetricsRegistry::merge_hist_bucket(std::uint32_t pe, Hist h,
                                        std::uint32_t bucket, std::uint64_t n,
                                        double max_hint) noexcept {
  Slot& s = slots_[pe];
  hist_lock_acquire(s);
  s.h[static_cast<std::size_t>(h)].add_bucket(bucket, n, max_hint);
  s.hist_lock.clear(std::memory_order_release);
}

Histogram MetricsRegistry::hist(std::uint32_t pe, Hist h) const {
  const Slot& s = slots_[pe];
  hist_lock_acquire(s);
  Histogram copy = s.h[static_cast<std::size_t>(h)];
  s.hist_lock.clear(std::memory_order_release);
  return copy;
}

Histogram MetricsRegistry::merged_hist(Hist h) const {
  Histogram out;
  for (std::uint32_t pe = 0; pe < num_pes(); ++pe) out.merge(hist(pe, h));
  return out;
}

void MetricsRegistry::reset() {
  for (Slot& s : slots_) {
    for (auto& a : s.c) a.store(0, std::memory_order_relaxed);
    hist_lock_acquire(s);
    for (Histogram& hg : s.h) hg.reset();
    s.hist_lock.clear(std::memory_order_release);
  }
}

namespace {

template <typename Get>
void append_counters(std::string& out, Get get) {
  out += '{';
  for (std::size_t i = 0; i < kNumCounters; ++i)
    append_kv(out, kCounterNames[i], get(static_cast<Counter>(i)),
              i + 1 < kNumCounters);
  out += '}';
}

void append_hist(std::string& out, const Histogram& h) {
  out += '{';
  append_kv(out, "count", h.count());
  append_kv(out, "p50", h.p50());
  append_kv(out, "p99", h.p99());
  append_kv(out, "p999", h.percentile(99.9));
  append_kv(out, "max", h.max_value(), false);
  out += '}';
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"num_pes\":";
  append_value(out, num_pes());
  out += ",\"totals\":";
  append_counters(out, [&](Counter c) { return total(c); });
  out += ",\"pes\":[";
  for (std::uint32_t pe = 0; pe < num_pes(); ++pe) {
    if (pe) out += ',';
    out += "{\"pe\":";
    append_value(out, pe);
    out += ",\"counters\":";
    append_counters(out, [&](Counter c) { return get(pe, c); });
    out += ",\"hists\":{";
    for (std::size_t i = 0; i < kNumHists; ++i) {
      if (i) out += ',';
      append_key(out, kHistNames[i]);
      append_hist(out, hist(pe, static_cast<Hist>(i)));
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string health_line(const HealthSnapshot& s) {
  const double ms_per_cycle =
      s.cycles_window ? s.window_ms / static_cast<double>(s.cycles_window)
                      : s.window_ms;
  const double marks_per_s =
      s.window_ms > 0.0
          ? static_cast<double>(s.marks) * 1000.0 / s.window_ms
          : 0.0;
  const std::uint64_t msgs = s.remote_msgs + s.local_msgs;
  const double remote_pct =
      msgs ? 100.0 * static_cast<double>(s.remote_msgs) /
                 static_cast<double>(msgs)
           : 0.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cycle %llu | %.2f ms/cycle | %.3g marks/s | remote %.1f%% | "
                "retx %llu",
                (unsigned long long)s.cycle, ms_per_cycle, marks_per_s,
                remote_pct, (unsigned long long)s.retransmits);
  std::string out = buf;
  if (s.workers_total) {
    std::snprintf(buf, sizeof(buf), " | workers %u/%u", s.workers_live,
                  s.workers_total);
    out += buf;
  }
  if (s.stall_ops) {
    std::snprintf(buf, sizeof(buf), " | stall-p99 %.4gus", s.stall_p99_us);
    out += buf;
  }
  if (s.telemetry_dropped) {
    std::snprintf(buf, sizeof(buf), " | tele-drop %llu",
                  (unsigned long long)s.telemetry_dropped);
    out += buf;
  }
  return out;
}

std::string health_jsonl(const HealthSnapshot& s) {
  std::string out = "{";
  append_kv(out, "cycle", s.cycle);
  append_kv(out, "cycles_window", s.cycles_window);
  append_kv(out, "window_ms", s.window_ms);
  append_kv(out, "marks", s.marks);
  append_kv(out, "remote_msgs", s.remote_msgs);
  append_kv(out, "local_msgs", s.local_msgs);
  append_kv(out, "retransmits", s.retransmits);
  append_kv(out, "stall_ops", s.stall_ops);
  append_kv(out, "mutator_stall_p99_us", s.stall_p99_us);
  append_kv(out, "telemetry_dropped", s.telemetry_dropped);
  append_kv(out, "workers_live", s.workers_live);
  append_kv(out, "workers_total", s.workers_total, false);
  out += '}';
  return out;
}

}  // namespace dgr::obs
