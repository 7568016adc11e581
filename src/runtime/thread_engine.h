// Multi-threaded engine: one OS thread per PE.
//
// Realizes the paper's machine with genuine parallelism: every PE runs its
// own thread, PEs exchange tasks only as messages into each other's inboxes
// (no shared task objects, stack or queue), and task execution is made
// atomic by per-vertex spinlocks — a mark or return task touches only its
// destination vertex, so marking scales across PEs, exactly the paper's
// decentralization claim (E8).
//
// Each PE's local run queue is priority-ordered (core/task.h mark_order):
// return tasks first, then vital marks, eager, reserve. mark2 re-marks a
// vertex every time a stronger mark reaches it after a weaker one, so
// running the strongest marks first cuts the mark tasks per cycle roughly in
// half on mixed-priority graphs; the marks and priorities reached are the
// same under any order.
//
// Each PE has exactly one inbox, its run queue, on both message planes; what
// differs, fixed at construction, is how a task reaches it:
//   - the typed plane (the default: no faults, no forced channel): every
//     marking task moves as a copied Task value. Cross-PE spawns are staged
//     per directed pair and flushed into the destination's run queue;
//     nothing is encoded.
//   - the channel plane (NetOptions::enabled(): faults or force_reliable):
//     every marking task, local or remote, takes the path
//       spawn → channel → FaultPlane → decode → run queue → pe_loop.
//     A TaskChannel (runtime/task_channel.h) encodes it and sends it through
//     a ChannelManager over a FaultPlane; the fault plane's delivery feeds
//     the frame back through the channel and pushes the exactly-once,
//     in-order tasks it releases into the destination PE's run queue.
// The per-task counters (quiescence counts, marker stats, registry counters)
// live on per-PE cache lines on both planes.
//
// Mutations (the cooperating primitives) touch several vertices; callers
// take the locks of the touch set in sorted order via atomically(). The
// restructuring phase runs under a brief global pause (quiesce) — the paper
// requires only the MARK phase to be concurrent (§4: "we concentrate solely
// upon the mark phase").
//
// Scope: this engine drives marking workloads plus driver-based mutation
// (the full reduction Machine runs on the deterministic SimEngine; see
// DESIGN.md §2, substitution 1).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/audit.h"
#include "core/controller.h"
#include "core/cooperation.h"
#include "core/marker.h"
#include "net/fault_plane.h"
#include "net/reliable_channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/pool.h"
#include "runtime/task_channel.h"
#include "util/mpmc_queue.h"

namespace dgr {

// Message-plane configuration. A nonzero fault schedule (or force_reliable)
// selects the channel plane; the default runs the typed plane (see above).
//
// Batching (on by default): cross-PE spawns coalesce per directed PE pair —
// on the typed plane into per-pair rows of Tasks (a row's size is its task
// count times kTaskWireBytes), flushed as one push into the destination's
// run queue; on the channel plane into multi-payload frames (the same knobs
// are forwarded to ReliableOptions). A batch flushes when it reaches
// batch_bytes, ages past batch_flush_us, or its owning PE goes idle or
// parks. batch_bytes == 0 restores one delivery per task (the --no-batch
// leg). The receive burst and the soft backpressure are constants
// (thread_engine.cpp: kDrainMax, kBackpressureLimit, kBackpressureSpins).
struct NetOptions {
  FaultPlaneOptions faults;
  ReliableOptions reliable;
  bool force_reliable = false;  // channel layer even with a zero schedule
  std::uint32_t batch_bytes = 4096;    // size cap per staged pair (0 = off)
  std::uint32_t batch_flush_us = 100;  // age cap on a staged batch
  // Boundary summaries: per-(destination PE, plane) tables recording the
  // strongest mark priority already forwarded per remote vertex this epoch;
  // duplicate remote child marks are suppressed at the sender (counted as
  // boundary_dedup), so each remote vertex is requested at most once per
  // wave and priority level instead of once per cross-partition edge.
  bool boundary_summary = true;
  // Work stealing: a PE with no work of its own takes up to half (capped at
  // one burst) of the deepest peer run queue and executes the batch itself
  // instead of parking. Sound because task execution is location-
  // transparent here: vertex locks are global stripes and counters are
  // per-executing-PE.
  bool steal = true;
  std::uint64_t steal_min = 16;  // don't steal below this victim backlog
  // Idle parking: a PE with an empty run queue and nothing stealable blocks
  // on the queue's condvar for at most this long (0 = yield-spin instead).
  // Bounded so pause requests, steal opportunities and retransmit timers
  // are still polled; parking matters most on hosts with fewer cores than
  // PEs, where a yield-spinning idler competes with the busy PEs for the
  // timeslice that would produce its next message.
  std::uint32_t idle_wait_us = 100;
  bool enabled() const { return faults.spec.any() || force_reliable; }
};

// Aggregate counter view over the per-PE obs::MetricsRegistry (see
// metrics_registry() for the per-PE breakdowns and histograms).
struct ThreadEngineStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t local_messages = 0;
  std::uint64_t bytes_sent = 0;          // encoded bytes (0 on the typed plane)
  // Deepest run-queue backlog seen (the one inbox per PE on both planes).
  std::uint64_t mailbox_high_water = 0;
  std::uint64_t msg_batched = 0;         // messages sent inside a batch
  std::uint64_t batch_flushes = 0;       // batches flushed
  std::uint64_t backpressure_stalls = 0; // spawns that hit the soft limit
  std::uint64_t boundary_dedup = 0;      // remote marks suppressed at source
  std::uint64_t steal_batches = 0;       // idle-PE steal passes that took work
  std::uint64_t steal_tasks = 0;         // tasks executed by a non-owner PE
  std::uint64_t edge_cut = 0;            // cross-PE arg edges at start()
  std::uint64_t edges_total = 0;         // all arg edges at start()
};

// Online health monitoring: a watchdog thread samples the metrics registry,
// the controller and the inboxes every `interval_ms` and flags
//   - a marking wave with no front progress for `stall_samples` samples,
//   - a run-queue backlog above `mailbox_saturation`,
//   - more than `rescue_storm` supplementary waves within one cycle,
// as health_warning trace events plus always-on counters (the counters
// survive -DDGR_TRACE=OFF; only the event emission compiles out).
struct WatchdogOptions {
  std::uint32_t interval_ms = 2;
  std::uint32_t stall_samples = 500;  // ~1 s of no progress at 2 ms
  std::uint64_t mailbox_saturation = 1 << 16;
  std::uint64_t rescue_storm = 64;
};

class ThreadEngine final : public TaskSink, public PoolSet {
 public:
  explicit ThreadEngine(Graph& g, NetOptions net = {});
  ~ThreadEngine() override;

  ThreadEngine(const ThreadEngine&) = delete;
  ThreadEngine& operator=(const ThreadEngine&) = delete;

  Graph& graph() { return g_; }
  Marker& marker() { return *marker_; }
  Mutator& mutator() { return *mutator_; }
  Controller& controller() { return *controller_; }

  void set_root(VertexId root) { controller_->set_root(root); }

  // Start the PE threads (idempotent). Mints every aux root first
  // (Controller::prewarm_aux_roots), so no PE thread allocates one mid-wave.
  void start();
  // Stop the PE threads, waking any parked on its run queue; pending work is
  // abandoned.
  void stop();

  // Block until no task is pending or executing anywhere.
  void wait_quiescent();
  // Block until the controller finishes the in-progress cycle.
  void wait_cycle_done();

  // Inject an inert reduction task into its destination pool (workload for
  // M_T / classification benches).
  void inject(Task t);

  // ---- TaskSink (thread-safe) ----
  void spawn(Task t) override;
  // Boundary-summary admission (see NetOptions::boundary_summary). Only
  // remote children spawned from a PE thread consult the table; external
  // callers and local children are always admitted.
  bool admit_mark(Plane plane, VertexId child, std::uint8_t prior,
                  std::uint64_t epoch) override;

  // ---- EngineHooks (the pool hooks come from PoolSet) ----
  void quiesce_begin() override;
  void quiesce_end() override;
  void on_cycle_complete(const CycleResult& res) override {
    auditor_.on_cycle_complete(res);
  }

  // Enable safe-point auditing (core/audit.h) inside the restructuring
  // quiesce window, where every PE thread is parked. Call before start().
  void enable_audit(AuditOptions opt = {}) { auditor_.enable(opt); }
  const AuditStats& audit_stats() const { return auditor_.stats(); }

  // Arm the stall watchdog (see WatchdogOptions). Call before start(); the
  // monitor thread lives from start() to stop().
  void enable_watchdog(WatchdogOptions opt = {});
  HealthReport health() const;

  // Execute `fn` with the listed vertices' locks held (sorted order) —
  // the atomic section for a multi-vertex mutation. The span overload
  // serves callers whose touch set is computed at runtime (the workload
  // driver locks a whole session subgraph at once).
  void atomically(std::initializer_list<VertexId> vs,
                  const std::function<void()>& fn);
  void atomically(std::span<const VertexId> vs,
                  const std::function<void()>& fn);

  ThreadEngineStats stats() const;
  // Null unless NetOptions::enabled() at construction (the channel plane).
  const TaskChannel* channel() const { return chan_.get(); }
  // Per-PE counters and histograms.
  obs::MetricsRegistry& metrics_registry() { return reg_; }
  const obs::MetricsRegistry& metrics_registry() const { return reg_; }

  // Start capturing a structured trace (ring buffer; oldest dropped).
  // Timestamps are µs since engine construction. Returns nullptr when
  // tracing is compiled out (-DDGR_TRACE=OFF). Call before start().
  obs::TraceBuffer* enable_trace(std::size_t capacity = 1 << 14);
  obs::TraceBuffer* trace() { return trace_.get(); }

 private:
  void pe_loop(PeId pe);
  void execute(PeId pe, const Task& t);
  // This engine's PE id for the calling thread; -1 for any thread that is
  // not one of this engine's PE threads.
  int self_pe() const;
  // Pop up to max_n tasks from PE `from`'s run queue into `b` (cleared
  // first), parking up to wait_us on its condvar while it is empty (0 = no
  // parking).
  std::size_t take(PeId from, std::size_t max_n, std::vector<Task>& b,
                   std::uint32_t wait_us = 0);
  // Execute `b` on PE thread `pe`, retiring each task.
  void run(PeId pe, const std::vector<Task>& b);
  // Quiescence accounting (see counts_); `self` is the caller's self_pe().
  void count_spawn(int self);
  void retire(int self);
  // Tasks waiting in PE `pe`'s run queue (backpressure, stealing and the
  // watchdog read this).
  std::size_t inbox_depth(PeId pe) const { return runq_[pe]->q.size(); }
  // Move PE `pe`'s staged local spawns into its run queue (owner only; the
  // channel plane stages nothing).
  void publish_local(PeId pe) { runq_[pe]->q.push_all(runq_[pe]->staged); }
  // Typed-plane batching: flush every staged pair whose sender is `pe`
  // (force) or only the size/age-ripe ones. PE-thread-local: row `pe` of
  // out_ is touched exclusively by its owning thread.
  void flush_outgoing(PeId pe, bool force);
  void flush_pair_fast(PeId src, PeId dst);
  // Edge-triggered congestion episode handling (see kBackpressureLimit).
  // Only PE thread `src` calls this for its own row, so the arming bytes
  // need no synchronization.
  void maybe_backpressure(PeId src, PeId dst);
  // Idle-path stealing: take up to half of the deepest peer run queue into
  // `b` and execute it here. Returns true if work was taken.
  bool try_steal(PeId pe, std::vector<Task>& b);
  // Walk the graph once and charge edge_cut / edges_total per owning PE
  // (called from start(), before any thread runs).
  void count_edge_cut();
  // Engine clock: µs since construction (also the trace timestamp base).
  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }
  void watchdog_loop();
  void warn(obs::HealthKind kind, std::uint16_t pe, std::uint64_t detail);
  std::uint32_t lock_index(VertexId v) const {
    return static_cast<std::uint32_t>(VertexIdHash{}(v) % locks_.size());
  }

  Graph& g_;
  std::unique_ptr<Marker> marker_;
  std::unique_ptr<Mutator> mutator_;
  std::unique_ptr<Controller> controller_;

  NetOptions net_;
  // The inboxes, one per PE on both planes: marking tasks for this PE, as
  // values. The owner stages its own typed-plane spawns in `staged` (no
  // lock) and publishes them to `q` once per loop pass, so the queue lock is
  // taken per burst, not per task; peers' flushes, external spawns and the
  // channel's deliveries push into `q` too. `q` is popped by the owner and
  // by idle thieves, both in mark_order (returns, then vital, eager and
  // reserve marks; see core/task.h), so a vertex is mostly reached at its
  // final priority first and mark2 seldom re-marks it.
  struct LocalRun {
    MpmcQueue<Task, kMarkOrders, &mark_order> q;
    std::vector<Task> staged;  // owning PE thread only
  };
  std::vector<std::unique_ptr<LocalRun>> runq_;
  // Sender staging (typed plane; the channel batches on its own).
  // out_[src][dst] holds cross-PE marking tasks awaiting one push into dst's
  // run queue. No locks: row src belongs to PE thread src alone; external
  // (self_pe() == -1) spawns bypass staging.
  struct OutBatch {
    std::vector<Task> tasks;
    std::uint64_t deadline_us = 0;  // set when the first task is staged
  };
  std::vector<std::vector<OutBatch>> out_;
  // Backpressure arming, indexed [src][dst]. Row src is written only by PE
  // thread src (external spawns have src == dst and skip the check).
  std::vector<std::vector<std::uint8_t>> bp_armed_;
  // Boundary summaries, one shard per (destination PE, plane): the epoch
  // and strongest priority already forwarded for each remote vertex index.
  // Flat arrays grown on demand under the shard spinlock; stale epochs are
  // invalidated lazily by comparison, so waves never clear the table.
  struct alignas(64) BoundaryShard {
    std::atomic_flag mu = ATOMIC_FLAG_INIT;
    std::vector<std::uint64_t> epoch;
    std::vector<std::uint8_t> prior;
  };
  std::vector<std::unique_ptr<BoundaryShard>> summary_;
  // The channel plane (null unless NetOptions::enabled()): spawn →
  // chan_ → FaultPlane → delivery, which decodes the exactly-once tasks into
  // the destination's run queue.
  std::unique_ptr<TaskChannel> chan_;

  std::vector<std::atomic_flag> locks_;

  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};

  // Counting quiescence (after Plyukhin & Agha's per-actor send/receive
  // counts): one cache line per PE thread, plus row num_pes for external
  // threads. A spawning thread bumps its row's `spawned` before the task is
  // published (run-queue push or channel send); the executing PE bumps its
  // row's `retired`, with release order, after execute() returns. A payload
  // the channel delivers but cannot decode retires on the delivering
  // thread's row instead. Only the owning thread writes a PE row, so no
  // per-task write is shared; the external row takes fetch_adds.
  //
  // wait_quiescent() reads every `retired` (acquire), then every `spawned`,
  // and returns when the sums are equal. Why equality proves that nothing
  // was in flight at one instant t between the two passes: the counts only
  // grow, so the retired sum R is at most the number retired by t and the
  // spawned sum S at least the number spawned by t; every task is spawned
  // before it can retire, so R <= retired(t) <= spawned(t) <= S, and R == S
  // forces retired(t) == spawned(t). The acquire reads also make the spawn
  // of every task whose retirement R counts (and every child it spawned)
  // visible to the second pass, so no spawn can hide behind a retirement.
  struct alignas(64) TaskCounts {
    std::atomic<std::uint64_t> spawned{0};
    std::atomic<std::uint64_t> retired{0};
  };
  std::unique_ptr<TaskCounts[]> counts_;

  // Quiesce protocol: a pauser raises `pause_`; every other PE thread parks
  // and reports in via `parked_`.
  alignas(64) std::atomic<bool> pause_{false};
  std::atomic<std::uint32_t> parked_{0};
  std::atomic_flag restructure_claim_ = ATOMIC_FLAG_INIT;

  obs::MetricsRegistry reg_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::chrono::steady_clock::time_point t0_;

  SafePointAuditor auditor_;

  // ---- Watchdog ----
  WatchdogOptions wd_opt_;
  std::atomic<bool> wd_enabled_{false};
  std::thread wd_thread_;
  std::atomic<std::uint64_t> health_[obs::kNumHealthKinds] = {};
};

}  // namespace dgr
