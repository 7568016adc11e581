// The telemetry schema: every counter, histogram, trace event type and
// health kind, defined once as a table row
//   X(kEnumerator, "wire name", ..., "doc")
// The enums, counter_name / hist_name / event_name / health_kind_name, the
// metrics JSON keys, the JSONL "type" strings, the analyzer's metrics reader
// and the Chrome exporter's instants all derive from these rows. Adding a
// counter means one row here plus one row in docs/OBSERVABILITY.md (test_obs
// checks the docs tables against these tables). Enumerator values are wire
// ids (net/proto.h telemetry codec): append rows, never reorder them.
#pragma once

#include <cstdint>
#include <utility>

#include "util/enum_table.h"

namespace dgr::obs {

// Attribution: task counters are charged to the PE that executed the task;
// message counters to the sending PE, unless the doc line says otherwise.
#define DGR_OBS_COUNTERS(X)                                                    \
  X(kMarkTasks, "mark_tasks", "kMark executions")                              \
  X(kReturnTasks, "return_tasks", "kMarkReturn executions")                    \
  X(kReductionTasks, "reduction_tasks", "reduction-task executions")           \
  X(kRemoteMessages, "remote_messages", "spawns crossing a PE boundary")       \
  X(kLocalMessages, "local_messages", "same-PE spawns")                        \
  X(kBytesSent, "bytes_sent", "bytes encoded for the wire")                    \
  X(kMsgDroppedInjected, "msg_dropped_injected", "fault plane: deleted")       \
  X(kMsgDupInjected, "msg_dup_injected", "fault plane: duplicated")            \
  X(kMsgReorderedInjected, "msg_reordered_injected", "fault plane: held back") \
  X(kMsgTruncatedInjected, "msg_truncated_injected", "fault plane: truncated") \
  X(kMsgRetransmit, "msg_retransmit", "data frames re-sent after RTO expiry")  \
  X(kMsgDupSuppressed, "msg_dup_suppressed", "duplicates dropped (receiver)")  \
  X(kMsgDecodeError, "msg_decode_error", "frames failing checks (receiver)")   \
  X(kMsgBatched, "msg_batched", "messages sent inside a coalesced batch")      \
  X(kBatchFlush, "batch_flush", "batches flushed (size/age cap, idle/park)")   \
  X(kBackpressureStall, "backpressure_stall", "spawns stalled on a backlog")   \
  X(kBoundaryDedup, "boundary_dedup", "remote marks a summary suppressed")     \
  X(kStealBatches, "steal_batches", "steal passes that took a task (thief)")   \
  X(kStealTasks, "steal_tasks", "tasks run off their owner PE (thief)")        \
  X(kEdgeCut, "edge_cut", "cross-PE arg edges (source vertex's PE)")           \
  X(kEdgesTotal, "edges_total", "all arg edges (source vertex's PE)")          \
  X(kHandoffBytes, "handoff_bytes", "partition-snapshot bytes (receiver)")     \
  X(kRelayedFrames, "relayed_frames", "worker data frames the hub relayed")    \
  X(kRelayedBytes, "relayed_bytes", "payload bytes of those frames")           \
  X(kTelemetryMsgs, "telemetry_msgs", "kTelemetry payloads merged")            \
  X(kTelemetryDropped, "telemetry_dropped", "trace events lost before merge")  \
  X(kWorkerLost, "worker_lost", "worker processes declared dead")              \
  X(kPartitionReassigned, "partition_reassigned", "PEs moved on recovery")    \
  X(kHandoffFullBytes, "handoff_full_bytes", "full-snapshot handoff bytes")    \
  X(kHandoffDeltaBytes, "handoff_delta_bytes", "differential handoff bytes")   \
  X(kHandoffResyncs, "handoff_resyncs", "checksum mismatches: full resync")    \
  X(kSessionsOpened, "sessions_opened", "sessions admitted (root's PE)")       \
  X(kSessionsClosed, "sessions_closed", "sessions retired (root's PE)")        \
  X(kSessionChurnOps, "session_churn_ops", "churn mutations applied")          \
  X(kSessionsRejected, "sessions_rejected", "arrivals refused: store full")    \
  X(kMutatorOps, "mutator_ops", "timed driver mutations (stall samples)")      \
  X(kMutatorStallIdleUs, "mutator_stall_idle_us", "stall us, collector idle") \
  X(kMutatorStallMarkUs, "mutator_stall_mark_us", "stall us, plane marking")   \
  X(kMutatorStallQuiesceUs, "mutator_stall_quiesce_us", "stall us, quiesce due")

#define DGR_OBS_HISTS(X)                                                       \
  X(kMarkQueueDepth, "mark_queue_depth", "run-queue backlog at service time")  \
  X(kPoolDepth, "pool_depth", "reduction pool depth at service time")          \
  X(kMsgLatency, "msg_latency", "cross-PE delivery latency (sim steps)")       \
  X(kChannelRtt, "channel_rtt_us", "reliable-channel clean RTT (us)")          \
  X(kBatchFillPct, "batch_fill_pct", "flushed batch fill (% of size cap)")     \
  X(kMutatorStallUs, "mutator_stall_us", "driver mutation blocked (us)")

// Where the Chrome exporter draws an event's instant: the controller track
// or the emitting PE's track; the *Plane forms append " R" / " T".
enum class ChromeTrack : std::uint8_t { kCtl, kPe, kCtlPlane, kPePlane };

// X(kEnumerator, "type", "Chrome label", track, "a" arg, "b" arg, "doc").
// The arg columns name the a/b payload words in Chrome args; nullptr leaves
// the word out. cycle_*, phase_* (spans) and wave_front (counter track) are
// drawn by the exporter's special cases, which still take their arg names
// from these rows.
#define DGR_OBS_EVENTS(X)                                                      \
  X(kCycleStart, "cycle_start", "cycle", Ctl, nullptr, nullptr,               \
    "controller: cycle kicked off; a = #roots")                                \
  X(kPhaseBegin, "phase_begin", "M_", Ctl, nullptr, nullptr,                  \
    "controller: M_T / M_R wave launched; a = epoch")                          \
  X(kPhaseEnd, "phase_end", "M_", Ctl, "marks", "returns",                    \
    "controller: wave terminated")                                             \
  X(kWaveFront, "wave_front", "marks", Pe, "marks", nullptr,                  \
    "marker: every Nth mark exec per PE; a = that PE's marks so far")          \
  X(kRescueWave, "rescue_wave", "rescue_wave", CtlPlane, "seeds", nullptr,    \
    "marker: supplementary wave launched")                                     \
  X(kRescueQueued, "rescue_queued", "rescue_queued", PePlane, "vertex",       \
    nullptr, "mutator: acquired ref queued; pe = referent's PE")               \
  X(kCoopTaint, "coop_taint", "coop_taint", PePlane, nullptr, nullptr,        \
    "mutator: no transient helper; cycle tainted")                             \
  X(kSweep, "sweep", "sweep", Ctl, "freed", nullptr,                          \
    "controller: restructure (a), vertices freed")                             \
  X(kExpunge, "expunge", "expunge", Ctl, "tasks", nullptr,                    \
    "controller: restructure (b), tasks expunged")                             \
  X(kReprioritize, "reprioritize", "reprioritize", Ctl, "tasks", nullptr,     \
    "controller: restructure (c), tasks retargeted")                           \
  X(kDeadlockReport, "deadlock_report", "deadlock_report", Ctl, "deadlocked", \
    nullptr, "controller: restructure (d), a = |DL'_v|")                       \
  X(kDeadlockVertex, "deadlock_vertex", "deadlocked", Pe, "idx", nullptr,     \
    "controller: one DL'_v member; pe = owner")                                \
  X(kCycleEnd, "cycle_end", "cycle", Ctl, "swept", "expunged",                \
    "controller: cycle complete")                                              \
  X(kAudit, "audit", "audit", Ctl, "violations", nullptr,                     \
    "engine: safe-point audit ran; b = |GAR'|")                                \
  X(kHealthWarning, "health_warning", "health: ", Pe, nullptr, "detail",      \
    "watchdog/audit: health flag; a = HealthKind (label suffix)")              \
  X(kFaultInjected, "fault_injected", "fault: ", Pe, nullptr, "bytes",        \
    "fault plane: fault applied; pe = sender, a = FaultKind (label suffix)")   \
  X(kMsgRetransmit, "msg_retransmit", "retransmit", Pe, "seq", nullptr,       \
    "channel: data frame re-sent; pe = sender, b = attempt")                   \
  X(kMsgDupSuppressed, "dup_suppressed", "dup_suppressed", Pe, "seq",         \
    nullptr, "channel: duplicate discarded; pe = receiver")                    \
  X(kBatchFlush, "batch_flush", "batch_flush", Pe, "messages", "bytes",       \
    "message plane: batch flushed; pe = sender")                               \
  X(kBackpressureStall, "backpressure_stall", "backpressure_stall", Pe,       \
    "dst_pe", "backlog", "engine: spawn stalled on backlog; pe = sender")      \
  X(kTraceDrop, "trace_drop", "trace_drop", Pe, "ring_dropped", "omitted",    \
    "telemetry: events lost upstream (ring, payload cap)")                     \
  X(kWorkerLost, "worker_lost", "worker_lost", Pe, "worker", "gen",           \
    "membership: worker declared dead; pe = home PE, b = new gen")             \
  X(kPartitionReassign, "partition_reassign", "partition_reassign", Pe,       \
    "pes_moved", "survivors", "membership: PEs moved to survivors")            \
  X(kHandoffResync, "handoff_resync", "handoff_resync", Pe, "worker", "seq",  \
    "membership: replica checksum diverged; b = handoff seq")                  \
  X(kSessionOpen, "session_open", "session_open", Pe, "session", "size",      \
    "driver: session admitted; pe = root PE")                                  \
  X(kSessionChurn, "session_churn", "session_churn", Pe, "session", nullptr,  \
    "driver: churn op applied; pe = root PE, b = op<<32|hot")                  \
  X(kSessionClose, "session_close", "session_close", Pe, "session",           \
    "ticks_lived", "driver: session retired; pe = root PE")

// Payload `a` of health_warning events (the ThreadEngine watchdog and the
// SafePointAuditor of core/audit.h).
#define DGR_OBS_HEALTH_KINDS(X)                                                \
  X(kMarkStall, "mark_stall", "wave made no front progress; b = marks")        \
  X(kMailboxSaturated, "mailbox_saturated", "backlog over limit; b = backlog") \
  X(kRescueStorm, "rescue_storm", "rescue waves over limit; b = waves")        \
  X(kAuditViolation, "audit_violation", "audit found a violation; b = audit #")

enum class Counter : std::uint8_t { DGR_OBS_COUNTERS(DGR_ENUMERATOR) kCount_ };
enum class Hist : std::uint8_t { DGR_OBS_HISTS(DGR_ENUMERATOR) kCount_ };
enum class EventType : std::uint8_t { DGR_OBS_EVENTS(DGR_ENUMERATOR) kCount_ };
enum class HealthKind : std::uint8_t {
  DGR_OBS_HEALTH_KINDS(DGR_ENUMERATOR) kCount_
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount_);
inline constexpr std::size_t kNumHists =
    static_cast<std::size_t>(Hist::kCount_);
inline constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(EventType::kCount_);
inline constexpr std::size_t kNumHealthKinds =
    static_cast<std::size_t>(HealthKind::kCount_);

inline constexpr const char* kCounterNames[] = {
    DGR_OBS_COUNTERS(DGR_ENUM_NAME)};
inline constexpr const char* kHistNames[] = {DGR_OBS_HISTS(DGR_ENUM_NAME)};
inline constexpr const char* kEventNames[] = {DGR_OBS_EVENTS(DGR_ENUM_NAME)};
inline constexpr const char* kHealthKindNames[] = {
    DGR_OBS_HEALTH_KINDS(DGR_ENUM_NAME)};

constexpr const char* counter_name(Counter c) {
  return enum_name(kCounterNames, c);
}
constexpr const char* hist_name(Hist h) { return enum_name(kHistNames, h); }
constexpr const char* event_name(EventType t) {
  return enum_name(kEventNames, t);
}
constexpr const char* health_kind_name(HealthKind k) {
  return enum_name(kHealthKindNames, k);
}

// The Chrome-export columns of one DGR_OBS_EVENTS row.
struct EventChrome {
  const char* label;
  ChromeTrack track;
  const char* a;  // arg name of payload a, or nullptr
  const char* b;
};
#define DGR_OBS_EVENT_CHROME(e, name, label, track, a, b, ...) \
  EventChrome{label, ChromeTrack::k##track, a, b},
inline constexpr EventChrome kEventChrome[] = {
    DGR_OBS_EVENTS(DGR_OBS_EVENT_CHROME)};
#undef DGR_OBS_EVENT_CHROME

// One worker process's row in the cluster rollup (proc-engine runs only):
// ProcEngine::cluster_metrics_json writes it, and the analyzer reads it back
// when a metrics dump carries a "workers" array.
struct WorkerRow {
  std::uint32_t worker = 0;
  std::uint32_t pe_begin = 0;
  std::uint32_t pe_count = 0;
  std::uint64_t marks = 0;
  std::uint64_t returns = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t handoff_bytes = 0;
  std::uint64_t handoff_full_bytes = 0;
  std::uint64_t handoff_delta_bytes = 0;
  std::uint64_t relayed_frames = 0;
  std::uint64_t relayed_bytes = 0;
  std::uint64_t telemetry_msgs = 0;
  std::uint64_t telemetry_dropped = 0;
  std::int64_t clock_offset_us = 0;  // worker minus controller; may be < 0
  std::uint64_t clock_rtt_us = 0;    // RTT of the winning offset probe
};

// The row's per-worker counts under their JSON keys, in write order: the
// one key list for ProcEngine::cluster_metrics_json, the analyzer's reader
// and its report_to_json.
inline constexpr std::pair<const char*, std::uint64_t WorkerRow::*>
    kWorkerKeys[] = {
        {"marks", &WorkerRow::marks},
        {"returns", &WorkerRow::returns},
        {"remote_messages", &WorkerRow::remote_messages},
        {"retransmits", &WorkerRow::retransmits},
        {"handoff_bytes", &WorkerRow::handoff_bytes},
        {"handoff_full_bytes", &WorkerRow::handoff_full_bytes},
        {"handoff_delta_bytes", &WorkerRow::handoff_delta_bytes},
        {"relayed_frames", &WorkerRow::relayed_frames},
        {"relayed_bytes", &WorkerRow::relayed_bytes},
        {"telemetry_msgs", &WorkerRow::telemetry_msgs},
        {"telemetry_dropped", &WorkerRow::telemetry_dropped},
};

}  // namespace dgr::obs
