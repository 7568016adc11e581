#include "core/audit.h"

#include "core/invariants.h"
#include "util/log.h"

namespace dgr {

void SafePointAuditor::fail(std::uint64_t cycle, const std::string& what) {
  ++stats_.violations;
  stats_.last_what = what;
  DGR_ERROR("audit violation (cycle %llu): %s", (unsigned long long)cycle,
            what.c_str());
  health_(obs::HealthKind::kAuditViolation, stats_.audits);
}

void SafePointAuditor::quiesce_begin(std::uint64_t cycle) {
  swept_check_ = false;
  if (!enabled_ || cycle % opt_.period != 0) return;
  ++stats_.audits;
  const std::uint64_t before = stats_.violations;
  if (opt_.check_invariants) {
    // Both planes have terminated (done) with marks intact; the pending task
    // multiset is empty — the wave's termination detection guarantees every
    // spawned marking task has executed.
    for (const Plane plane : {Plane::kR, Plane::kT}) {
      if (!marker_.active(plane) || !marker_.done(plane)) continue;
      if (marker_.cycle_tainted(plane)) continue;
      const InvariantReport rep =
          check_marking_invariants(g_, marker_, plane, {});
      if (!rep.ok) fail(cycle, rep.what);
    }
  }
  std::uint64_t gar = 0;
  if (opt_.check_accounting) {
    const AccountingReport acc = check_heap_accounting(g_, marker_);
    if (!acc.ok) {
      fail(cycle, acc.what);
    } else if (marker_.active(Plane::kR) && marker_.done(Plane::kR)) {
      // GAR' is frozen until the sweep (mutators are excluded): the
      // restructure about to run must free exactly this many vertices.
      expected_gar_ = acc.gar;
      swept_check_ = true;
    }
    gar = acc.gar;
  }
  DGR_TRACE_EVENT(trace_, obs::EventType::kAudit, Plane::kR, 0, cycle,
                  stats_.violations - before, gar);
}

void SafePointAuditor::on_cycle_complete(const CycleResult& res) {
  if (!swept_check_) return;
  swept_check_ = false;
  if (res.swept != expected_gar_)
    fail(res.cycle, "Property 1 violated: swept " + std::to_string(res.swept) +
                        " != GAR' " + std::to_string(expected_gar_));
}

}  // namespace dgr
