// Safe-point auditing: §5.4.1 marking invariants + Property 1 accounting on
// the live graph, shared by every engine that reaches a restructuring safe
// point (ThreadEngine, ProcEngine).
//
// The safe point is EngineHooks::quiesce_begin: both planes have terminated
// but their marks are not yet consumed, and no marking task is in flight.
// ThreadEngine reaches it with every PE thread parked; ProcEngine once every
// worker's mark report for the wave has been merged into the authoritative
// graph. A second check runs from EngineHooks::on_cycle_complete: the sweep
// must have freed exactly the GAR' measured at the safe point. Violations are
// counted, logged, traced and reported through the engine's health callback
// as kAuditViolation; they never abort (CI decides via --health-fatal).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/controller.h"
#include "obs/trace.h"

namespace dgr {

struct AuditOptions {
  std::uint32_t period = 1;      // audit every Nth cycle (0 disables)
  bool check_invariants = true;  // marking invariants 1-3 on terminated planes
  bool check_accounting = true;  // Property 1: GAR = V − R − F, R ∩ F = ∅
};

struct AuditStats {
  std::uint64_t audits = 0;      // safe-point audits executed
  std::uint64_t violations = 0;  // failed checks (invariant or accounting)
  std::string last_what;         // human-readable description of the latest
};

// Health warnings an engine raised, by obs::HealthKind (the watchdog's and
// the auditor's alike).
struct HealthReport {
  std::uint64_t warnings[obs::kNumHealthKinds] = {};
  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (std::uint64_t w : warnings) n += w;
    return n;
  }
};

class SafePointAuditor {
 public:
  // How a violation reaches the engine's health counters and trace: `detail`
  // is the running audit count (payload b of the kHealthWarning event).
  using HealthFn = std::function<void(obs::HealthKind, std::uint64_t detail)>;

  SafePointAuditor(const Graph& g, const Marker& marker, HealthFn health)
      : g_(g), marker_(marker), health_(std::move(health)) {}

  // Arm auditing (call before the engine starts cycling).
  void enable(AuditOptions opt) {
    opt_ = opt;
    enabled_ = opt.period != 0;
  }
  void set_trace(obs::TraceBuffer* t) { trace_ = t; }
  // Mutated only inside the restructuring window by the single restructuring
  // thread; read externally once the engine is idle or stopped.
  const AuditStats& stats() const { return stats_; }

  // At the safe point of cycle number `cycle`.
  void quiesce_begin(std::uint64_t cycle);
  // After the restructure: swept must equal the GAR' seen at the safe point.
  void on_cycle_complete(const CycleResult& res);

 private:
  void fail(std::uint64_t cycle, const std::string& what);

  const Graph& g_;
  const Marker& marker_;
  HealthFn health_;
  obs::TraceBuffer* trace_ = nullptr;
  AuditOptions opt_;
  bool enabled_ = false;
  AuditStats stats_;
  bool swept_check_ = false;  // cross-check swept vs GAR' this cycle
  std::size_t expected_gar_ = 0;
};

}  // namespace dgr
