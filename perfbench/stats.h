// The benchmark's own arithmetic: the percentile reporting rule, ns timing,
// span self time and open-loop lag accounting. Header-only so
// test_perfbench.cpp checks exactly what dgr_perfbench computes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds from a to b. The program's own stall metric truncates to whole
// µs (every sub-µs gate wait reads 0), so the benchmark times in ns itself.
inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---- Percentiles ----
//
// Nearest rank: the p-th percentile of n sorted samples is sample
// ceil(p/100 * n) (1-based). It is reported only when at least
// kMinBeyond samples lie strictly above that rank, so a p99 needs 1,000
// samples and a p50 needs 20.
inline constexpr std::size_t kMinBeyond = 10;

inline std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

inline bool reportable(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinBeyond;
}

// A sample set; sorted lazily on the first percentile query.
class Dist {
 public:
  void add(double x) {
    v_.push_back(x);
    sorted_ = false;
  }
  std::size_t n() const { return v_.size(); }
  // The percentile under the reporting rule; nullopt when too few samples
  // lie beyond it.
  std::optional<double> pct(double p) {
    if (!reportable(v_.size(), p)) return std::nullopt;
    return raw_pct(p);
  }
  // The nearest-rank value whatever the sample count (0 when empty).
  double raw_pct(double p) {
    if (v_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    return v_[nearest_rank(v_.size(), p) - 1];
  }

 private:
  std::vector<double> v_;
  bool sorted_ = true;
};

// ---- Spans ----
//
// One interval at a layer boundary. `parent` indexes the span that caused
// it (-1 for a top-level span); `group` is the id shared by the spans of one
// tick or one cycle.
struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t group = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Self time of every span: its duration minus the part of it that the union
// of its children's intervals covers (children clipped to the parent, and
// overlapping children counted once).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (auto [a, b] : k) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

// ---- Open-loop schedule ----
//
// Every event of tick t is due at t0 + t * tick. An op is timed from its
// tick's due time to its return (ns_between(due(t), ret)), so a stall is
// also charged to every op queued behind it; how late the generator itself
// started a tick is kept apart as the lag.
class OpenLoop {
 public:
  OpenLoop(Clock::time_point t0, std::chrono::nanoseconds tick)
      : t0_(t0), tick_(tick) {}
  Clock::time_point due(std::uint64_t t) const {
    return t0_ + tick_ * static_cast<std::int64_t>(t);
  }
  // Lateness of a tick that started at `start` (0 when on time or early).
  std::int64_t lag_ns(std::uint64_t t, Clock::time_point start) const {
    return std::max<std::int64_t>(0, ns_between(due(t), start));
  }

 private:
  Clock::time_point t0_;
  std::chrono::nanoseconds tick_;
};

}  // namespace perfbench
