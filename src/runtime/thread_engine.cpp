#include "runtime/thread_engine.h"

#include <algorithm>
#include <shared_mutex>

#include "net/wire.h"
#include "obs/trace.h"

namespace dgr {

namespace {
// Tasks a PE takes from its run queue per loop pass, under one queue lock;
// also the cap on one steal. The bound keeps pause/restructure latency and
// flush staleness in check.
constexpr std::size_t kDrainMax = 64;
// Soft backpressure, edge-triggered per directed PE pair: the first spawn
// that finds the destination's run queue deeper than kBackpressureLimit
// yields up to kBackpressureSpins times (counted as backpressure_stall) and,
// if the peer is still congested, disarms the pair — subsequent spawns
// proceed at full speed until the backlog falls below half the limit, which
// re-arms it. One stall episode per congestion event, not one per message:
// a per-message yield loop is exactly the ping-pong stall that produced the
// 2-PE cliff (see docs/PERF.md). Never blocking is load-bearing: the
// spawner may hold vertex-stripe locks (globally shared hash stripes) that
// the congested receiver needs to make progress. The backlog counts the
// destination's own work too.
constexpr std::uint64_t kBackpressureLimit = 1 << 15;
constexpr std::uint32_t kBackpressureSpins = 64;
// A busy channel-plane PE services its channel timers (aged batches,
// retransmits, deferred acks) once per this many loop passes; an idle one
// every pass.
constexpr std::uint32_t kServicePasses = 64;

// The engine and PE id of the current thread, if it is a PE thread. Keyed by
// engine so a PE thread calling into another engine counts as external there.
thread_local const ThreadEngine* tl_engine = nullptr;
thread_local int tl_pe = -1;

// Test-and-set spinlock acquisition: a bounded pause, then yield. An
// unbounded pause loop is correct on a dedicated core but pathological when
// PE threads share cores: if the holder is descheduled mid-critical-section,
// a pause-only spinner burns its whole scheduler quantum before the holder
// can run again.
void spin_lock(std::atomic_flag& f) {
  std::uint32_t spins = 0;
  while (f.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__)
    if (++spins < 64) {
      __builtin_ia32_pause();
      continue;
    }
#endif
    std::this_thread::yield();
  }
}

// Mutation gate shared between external mutators and the quiescing
// restructurer. Static keeps the header light; engines are few.
std::shared_mutex& mutation_gate() {
  static std::shared_mutex gate;
  return gate;
}
}  // namespace

ThreadEngine::ThreadEngine(Graph& g, NetOptions net)
    : PoolSet(g.num_pes()),
      g_(g),
      marker_(std::make_unique<Marker>(g_, *this)),
      net_(net),
      locks_(4096),
      reg_(g.num_pes()),
      t0_(std::chrono::steady_clock::now()),
      auditor_(g_, *marker_,
               [this](obs::HealthKind kind, std::uint64_t detail) {
                 warn(kind, 0, detail);
               }) {
  mutator_ = std::make_unique<Mutator>(g_, *marker_);
  controller_ =
      std::make_unique<Controller>(g_, *marker_, *this, VertexId::invalid());
  // Restructuring must not run from inside a task execution (the completing
  // task holds its vertex lock); the PE loops pick it up lock-free.
  controller_->set_deferred_restructure(true);
  // One inbox per PE on both planes: its run queue.
  for (PeId pe = 0; pe < g_.num_pes(); ++pe)
    runq_.push_back(std::make_unique<LocalRun>());
  counts_ = std::make_unique<TaskCounts[]>(g_.num_pes() + 1u);
  out_.resize(g_.num_pes());
  for (auto& row : out_) row.resize(g_.num_pes());
  bp_armed_.resize(g_.num_pes());
  for (auto& row : bp_armed_) row.assign(g_.num_pes(), 1);  // armed
  summary_.reserve(g_.num_pes() * 2u);
  for (std::size_t i = 0; i < g_.num_pes() * 2u; ++i)
    summary_.push_back(std::make_unique<BoundaryShard>());
  // One set of batching knobs end to end: the channel coalesces with the
  // same size/age caps as the fast path.
  net_.reliable.batch_bytes = net_.batch_bytes;
  net_.reliable.batch_flush_us = net_.batch_flush_us;
  if (net_.enabled()) {
    // The channel plane ends at delivery: whichever thread the fault plane
    // delivers a frame on feeds it through the channel and pushes the tasks
    // it releases into the destination's run queue, in one push.
    chan_ = std::make_unique<TaskChannel>(
        g_.num_pes(), net_.faults, net_.reliable, reg_, trace_,
        [this](PeId, PeId dst, TaskChannel::Bytes frame) {
          std::vector<Task> tasks;
          const std::size_t bad = chan_->receive(dst, frame, now_us(), tasks);
          runq_[dst]->q.push_all(tasks);
          // An undecodable payload still retires its spawn, so
          // wait_quiescent cannot hang on it.
          for (std::size_t i = 0; i < bad; ++i) retire(self_pe());
        });
  }
}

ThreadEngine::~ThreadEngine() { stop(); }

void ThreadEngine::start() {
  if (running_.exchange(true)) return;
  // Every aux root exists before a PE thread can need one (see
  // Controller::prewarm_aux_roots).
  controller_->prewarm_aux_roots();
  count_edge_cut();
  for (PeId pe = 0; pe < g_.num_pes(); ++pe)
    threads_.emplace_back([this, pe] { pe_loop(pe); });
  if (wd_enabled_.load(std::memory_order_acquire))
    wd_thread_ = std::thread([this] { watchdog_loop(); });
}

void ThreadEngine::stop() {
  if (!running_.exchange(false)) return;
  // Wake every PE parked on its run queue.
  for (auto& r : runq_) r->q.close();
  for (auto& t : threads_) t.join();
  threads_.clear();
  if (wd_thread_.joinable()) wd_thread_.join();
}

int ThreadEngine::self_pe() const { return tl_engine == this ? tl_pe : -1; }

void ThreadEngine::count_spawn(int self) {
  if (self < 0) {
    // External threads share one row, so they need a real RMW.
    counts_[g_.num_pes()].spawned.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Single writer: a plain load/store pair instead of a locked RMW. The
  // publication that follows (queue lock, channel lock) orders it.
  std::atomic<std::uint64_t>& c = counts_[self].spawned;
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void ThreadEngine::retire(int self) {
  if (self < 0) {
    counts_[g_.num_pes()].retired.fetch_add(1, std::memory_order_release);
    return;
  }
  std::atomic<std::uint64_t>& c = counts_[self].retired;
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_release);
}

void ThreadEngine::spawn(Task t) {
  DGR_CHECK(t.d.valid() && !t.d.is_rootpar());
  const int self = self_pe();
  const PeId src = self >= 0 ? static_cast<PeId>(self) : t.d.pe;
  const PeId dst = t.d.pe;
  reg_.add(src, src == dst ? obs::Counter::kLocalMessages
                           : obs::Counter::kRemoteMessages);
  if (!task_is_marking(t.kind)) {
    // Reduction tasks are inert pool workload in this engine (the full
    // reduction machine runs on the deterministic SimEngine).
    inject(std::move(t));
    return;
  }
  count_spawn(self);
  if (!chan_ && self >= 0 && dst == src) {
    // A PE's own task stays a value in its run queue: nothing crosses a PE
    // boundary, so there is nothing to serialize.
    runq_[dst]->staged.push_back(t);
    return;
  }
  if (src != dst) maybe_backpressure(src, dst);
  if (chan_) {
    const std::uint64_t now = now_us();
    chan_->send(src, dst, t, now);
    // An external thread has no loop to flush its batch later: deliver it
    // now, as the typed plane does.
    if (self < 0) chan_->flush(src, now);
    return;
  }
  // Typed plane. Cross-PE spawns from a PE thread stage into the per-pair
  // row; external threads deliver directly — staging rows are single-writer
  // by construction.
  if (net_.batch_bytes > 0 && self >= 0) {
    OutBatch& b = out_[src][dst];
    if (b.tasks.empty()) b.deadline_us = now_us() + net_.batch_flush_us;
    b.tasks.push_back(t);
    if (b.tasks.size() * kTaskWireBytes >= net_.batch_bytes)
      flush_pair_fast(src, dst);
    return;
  }
  runq_[dst]->q.push(t);
}

void ThreadEngine::maybe_backpressure(PeId src, PeId dst) {
  const std::uint64_t backlog = inbox_depth(dst);
  std::uint8_t& armed = bp_armed_[src][dst];
  if (!armed) {
    // A congestion episode is in progress: sail through until the peer has
    // genuinely drained (hysteresis at half the limit re-arms the pair).
    // Yielding per message while the backlog sits above the limit is the
    // 2-PE cliff: a steady-state mark exchange holds both mailboxes near
    // their high-water, so every spawn paid the full spin budget.
    if (backlog < kBackpressureLimit / 2) armed = 1;
    return;
  }
  if (backlog <= kBackpressureLimit) return;
  reg_.add(src, obs::Counter::kBackpressureStall);
  DGR_TRACE_EVENT(trace_.get(), obs::EventType::kBackpressureStall, Plane::kR,
                  static_cast<std::uint16_t>(src), 0,
                  static_cast<std::uint64_t>(dst), backlog);
  // Soft and strictly bounded: this thread may hold vertex-stripe locks
  // (globally shared hash stripes) that the congested receiver needs, so
  // waiting indefinitely could deadlock. Yield a few times; if the peer is
  // still congested, disarm and let the episode run its course.
  for (std::uint32_t i = 0; i < kBackpressureSpins; ++i) {
    std::this_thread::yield();
    if (inbox_depth(dst) <= kBackpressureLimit) return;
  }
  armed = 0;
}

bool ThreadEngine::admit_mark(Plane plane, VertexId child, std::uint8_t prior,
                              std::uint64_t epoch) {
  if (!net_.boundary_summary) return true;
  // Only remote children spawned by a PE thread go through the summary:
  // local spawns are cheap, and external callers (root seed, tests) must
  // never be vetoed.
  const int self = self_pe();
  if (self < 0 || child.pe == static_cast<PeId>(self)) return true;
  BoundaryShard& s =
      *summary_[child.pe * 2u + (plane == Plane::kR ? 0u : 1u)];
  bool admit = true;
  spin_lock(s.mu);
  if (child.idx >= s.epoch.size()) {
    s.epoch.resize(child.idx + 1, 0);
    s.prior.resize(child.idx + 1, 0);
  }
  if (s.epoch[child.idx] != epoch || prior > s.prior[child.idx]) {
    // First request for this vertex this epoch, or a strictly stronger
    // priority than anything forwarded so far: record and admit.
    s.epoch[child.idx] = epoch;
    s.prior[child.idx] = prior;
  } else {
    admit = false;
  }
  s.mu.clear(std::memory_order_release);
  if (!admit) reg_.add(static_cast<std::uint32_t>(self),
                       obs::Counter::kBoundaryDedup);
  return admit;
}

void ThreadEngine::count_edge_cut() {
  g_.for_each_live([this](VertexId v) {
    std::uint64_t total = 0, cut = 0;
    for (const ArgEdge& e : g_.at(v).args) {
      if (!e.to.valid()) continue;
      ++total;
      if (e.to.pe != v.pe) ++cut;
    }
    if (total) reg_.add(v.pe, obs::Counter::kEdgesTotal, total);
    if (cut) reg_.add(v.pe, obs::Counter::kEdgeCut, cut);
  });
}

void ThreadEngine::flush_pair_fast(PeId src, PeId dst) {
  OutBatch& b = out_[src][dst];
  if (b.tasks.empty()) return;
  const std::size_t count = b.tasks.size();
  const std::size_t bytes = count * kTaskWireBytes;
  reg_.add(src, obs::Counter::kBatchFlush);
  reg_.add(src, obs::Counter::kMsgBatched, count);
  reg_.observe(src, obs::Hist::kBatchFillPct,
               100.0 * static_cast<double>(bytes) /
                   static_cast<double>(net_.batch_bytes));
  DGR_TRACE_EVENT(trace_.get(), obs::EventType::kBatchFlush, Plane::kR,
                  static_cast<std::uint16_t>(src), 0,
                  static_cast<std::uint64_t>(count),
                  static_cast<std::uint64_t>(bytes));
  b.deadline_us = 0;
  // One queue lock for the whole row; the row keeps its capacity.
  runq_[dst]->q.push_all(b.tasks);
}

void ThreadEngine::flush_outgoing(PeId pe, bool force) {
  if (net_.batch_bytes == 0) return;  // nothing ever staged
  std::uint64_t now = 0;              // read once, and only when needed
  for (PeId dst = 0; dst < g_.num_pes(); ++dst) {
    OutBatch& b = out_[pe][dst];
    if (b.tasks.empty()) continue;
    if (!force && b.tasks.size() * kTaskWireBytes < net_.batch_bytes) {
      if (now == 0) now = now_us();
      if (now < b.deadline_us) continue;
    }
    flush_pair_fast(pe, dst);
  }
}

void ThreadEngine::inject(Task t) { pool_push(std::move(t)); }

void ThreadEngine::pe_loop(PeId pe) {
  tl_engine = this;
  tl_pe = static_cast<int>(pe);
  std::uint32_t passes = 0;   // for periodic channel service while busy
  std::vector<Task> burst;    // reused across passes
  while (running_.load(std::memory_order_relaxed)) {
    // Whatever the last pass (tasks, a restructure, a steal) spawned for
    // this PE becomes runnable, and stealable, here.
    publish_local(pe);
    if (pause_.load(std::memory_order_acquire)) {
      // Staged marks must reach their inboxes before this PE parks: a
      // message wedged here would stall wave termination (and with it the
      // quiescer) indefinitely.
      flush_outgoing(pe, /*force=*/true);
      parked_.fetch_add(1, std::memory_order_acq_rel);
      while (pause_.load(std::memory_order_acquire) &&
             running_.load(std::memory_order_relaxed))
        std::this_thread::yield();
      parked_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    if (controller_->restructure_due() &&
        !restructure_claim_.test_and_set(std::memory_order_acq_rel)) {
      if (controller_->restructure_due()) controller_->run_restructure();
      restructure_claim_.clear(std::memory_order_release);
      continue;
    }
    // A burst of the run queue: up to kDrainMax tasks per pass.
    std::size_t n = take(pe, kDrainMax, burst);
    // Channel timers: every pass while idle — a dropped frame leaves the
    // destination's run queue empty until this PE re-sends it — and every
    // kServicePasses passes while busy.
    if (chan_ && (n == 0 || ++passes % kServicePasses == 0)) {
      const std::uint64_t now = now_us();
      if (n == 0) chan_->flush(pe, now);
      chan_->service(pe, now);
    }
    if (n == 0) {
      // Idle: staged batches flush now (latency floor for stragglers).
      flush_outgoing(pe, /*force=*/true);
      // Balance the survivors: an idle PE takes half of the deepest peer
      // backlog instead of parking — on a congested pair this turns the
      // ping-pong idle time into useful marking work.
      if (net_.steal && try_steal(pe, burst)) continue;
      // Nothing to run and nothing to steal: park on the run queue's condvar
      // (bounded, so pause/steal/timer polls still happen) rather than
      // yield-spinning. A polling idler on a shared core competes with the
      // busy PEs for the timeslice that would drain the very backlog it is
      // polling for. Every wake-up source pushes into the run queue: peers'
      // flushes, external spawns and the channel's deliveries.
      if (net_.idle_wait_us == 0)
        std::this_thread::yield();
      else
        n = take(pe, kDrainMax, burst, net_.idle_wait_us);
      if (n == 0) continue;
    }
    // Sampled backlog at service time, once per pass: what this pass serves
    // plus what still waits in the run queue. The per-PE hist lock is
    // uncontended: only this thread observes its slot.
    if ((reg_.get(pe, obs::Counter::kMarkTasks) & 15) == 0)
      reg_.observe(pe, obs::Hist::kMarkQueueDepth,
                   static_cast<double>(n + inbox_depth(pe)));
    run(pe, burst);
    // Between bursts: push out size/age-ripe batches staged by the executes
    // above (worst-case staleness is one kDrainMax burst + batch_flush_us).
    flush_outgoing(pe, /*force=*/false);
  }
  tl_pe = -1;
  tl_engine = nullptr;
}

std::size_t ThreadEngine::take(PeId from, std::size_t max_n,
                               std::vector<Task>& b, std::uint32_t wait_us) {
  b.clear();
  auto& q = runq_[from]->q;
  return wait_us ? q.pop_up_to_wait(max_n, b,
                                    std::chrono::microseconds(wait_us))
                 : q.pop_up_to(max_n, b);
}

void ThreadEngine::run(PeId pe, const std::vector<Task>& b) {
  for (const Task& t : b) {
    execute(pe, t);
    retire(static_cast<int>(pe));
  }
}

bool ThreadEngine::try_steal(PeId pe, std::vector<Task>& b) {
  PeId victim = pe;
  std::size_t deepest = 0;
  for (PeId v = 0; v < g_.num_pes(); ++v) {
    if (v == pe) continue;
    const std::size_t backlog = inbox_depth(v);
    if (backlog > deepest) {
      deepest = backlog;
      victim = v;
    }
  }
  if (deepest < net_.steal_min) return false;
  const std::size_t want =
      std::max<std::size_t>(std::min<std::size_t>(deepest / 2, kDrainMax), 1);
  const std::size_t n = take(victim, want, b);
  if (n == 0) return false;
  reg_.add(pe, obs::Counter::kStealBatches);
  reg_.add(pe, obs::Counter::kStealTasks, n);
  // Execute the stolen batch here. Location transparency makes this safe:
  // vertex locks are global stripes, the marker touches only t.d under its
  // lock, and counters are charged to the executing PE.
  run(pe, b);
  // Children spawned by the stolen tasks staged into this thief's rows;
  // push the ripe ones out before the next poll.
  flush_outgoing(pe, /*force=*/false);
  return true;
}

void ThreadEngine::execute(PeId pe, const Task& t) {
  DGR_CHECK(task_is_marking(t.kind));
  reg_.add(pe, t.kind == TaskKind::kMark ? obs::Counter::kMarkTasks
                                         : obs::Counter::kReturnTasks);
  // Atomicity of task execution (§2.1): a marking task touches only its
  // destination vertex, so its lock is the whole story.
  std::atomic_flag& lock = locks_[lock_index(t.d)];
  spin_lock(lock);
  marker_->exec(t);
  lock.clear(std::memory_order_release);
}

void ThreadEngine::atomically(std::initializer_list<VertexId> vs,
                              const std::function<void()>& fn) {
  atomically(std::span<const VertexId>(vs.begin(), vs.size()), fn);
}

void ThreadEngine::atomically(std::span<const VertexId> vs,
                              const std::function<void()>& fn) {
  std::shared_lock<std::shared_mutex> gate(mutation_gate());
  // Sorted, deduplicated (by lock index) acquisition avoids both deadlock
  // and double-locking of aliased stripes.
  std::vector<std::uint32_t> idx;
  idx.reserve(vs.size());
  for (VertexId v : vs) idx.push_back(lock_index(v));
  std::sort(idx.begin(), idx.end());
  idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  for (std::uint32_t i : idx)
    while (locks_[i].test_and_set(std::memory_order_acquire))
      std::this_thread::yield();
  fn();
  for (auto it = idx.rbegin(); it != idx.rend(); ++it)
    locks_[*it].clear(std::memory_order_release);
}

void ThreadEngine::quiesce_begin() {
  // A PE-thread quiescer flushes its own staging row first: nothing this
  // thread staged may sit out the safe point (belt and braces — marking has
  // terminated, so the rows should already be empty).
  const int self = self_pe();
  if (self >= 0) flush_outgoing(static_cast<PeId>(self), /*force=*/true);
  // Exclusive against external mutators...
  mutation_gate().lock();
  // ...and against the PE threads (minus the caller, if it is one).
  pause_.store(true, std::memory_order_release);
  const std::uint32_t expected = g_.num_pes() - (self >= 0 ? 1u : 0u);
  while (parked_.load(std::memory_order_acquire) < expected)
    std::this_thread::yield();
  // Safe point: every PE is parked, both planes have terminated with their
  // marks still unconsumed, no marking task is in flight — the one globally
  // consistent state the concurrent engine reaches. Audit here.
  auditor_.quiesce_begin(controller_->cycles_completed() + 1);
}

void ThreadEngine::quiesce_end() {
  pause_.store(false, std::memory_order_release);
  mutation_gate().unlock();
}

void ThreadEngine::wait_quiescent() {
  // Retired first, then spawned: the order the argument at counts_ needs.
  const std::uint32_t rows = g_.num_pes() + 1u;
  for (;;) {
    std::uint64_t retired = 0, spawned = 0;
    for (std::uint32_t i = 0; i < rows; ++i)
      retired += counts_[i].retired.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < rows; ++i)
      spawned += counts_[i].spawned.load(std::memory_order_acquire);
    if (retired == spawned) return;
    std::this_thread::yield();
  }
}

void ThreadEngine::wait_cycle_done() {
  while (!controller_->idle()) std::this_thread::yield();
}

void ThreadEngine::enable_watchdog(WatchdogOptions opt) {
  wd_opt_ = opt;
  wd_enabled_.store(true, std::memory_order_release);
}

HealthReport ThreadEngine::health() const {
  HealthReport r;
  for (std::size_t i = 0; i < obs::kNumHealthKinds; ++i)
    r.warnings[i] = health_[i].load(std::memory_order_relaxed);
  return r;
}

void ThreadEngine::warn(obs::HealthKind kind, std::uint16_t pe,
                        std::uint64_t detail) {
  health_[static_cast<std::size_t>(kind)].fetch_add(1,
                                                    std::memory_order_relaxed);
  DGR_TRACE_EVENT(trace_.get(), obs::EventType::kHealthWarning, Plane::kR, pe,
                  controller_->cycles_completed() + 1,
                  static_cast<std::uint64_t>(kind), detail);
}

void ThreadEngine::watchdog_loop() {
  std::uint64_t last_progress = 0;
  std::uint32_t stalled = 0;
  bool stall_reported = false;
  auto total_rescues = [this] {
    return marker_->rescue_waves(Plane::kR) + marker_->rescue_waves(Plane::kT);
  };
  std::uint64_t cycle_base_rescues = total_rescues();
  std::uint64_t last_cycle = controller_->cycles_completed();
  bool rescue_reported = false;
  std::vector<bool> mailbox_reported(g_.num_pes(), false);
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(wd_opt_.interval_ms));
    // Inbox saturation, edge-triggered per PE (re-arms once the backlog
    // halves, so a persistently saturated inbox warns once, not per tick).
    for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
      const std::uint64_t backlog = inbox_depth(pe);
      if (backlog >= wd_opt_.mailbox_saturation) {
        if (!mailbox_reported[pe]) {
          mailbox_reported[pe] = true;
          warn(obs::HealthKind::kMailboxSaturated, pe, backlog);
        }
      } else if (backlog < wd_opt_.mailbox_saturation / 2) {
        mailbox_reported[pe] = false;
      }
    }
    // Per-cycle trackers reset when a new cycle begins.
    const std::uint64_t cyc = controller_->cycles_completed();
    if (cyc != last_cycle) {
      last_cycle = cyc;
      cycle_base_rescues = total_rescues();
      rescue_reported = false;
      stalled = 0;
      stall_reported = false;
    }
    // Rescue storm: the supplementary-wave loop is churning, which means
    // mutators acquire references faster than waves can absorb them.
    const std::uint64_t waves = total_rescues() - cycle_base_rescues;
    if (waves >= wd_opt_.rescue_storm && !rescue_reported) {
      rescue_reported = true;
      warn(obs::HealthKind::kRescueStorm, 0, waves);
    }
    // Wave-front stall: a plane is actively marking yet the global
    // mark/return counters have not moved for the whole window.
    const bool marking = marker_->marking_in_progress(Plane::kR) ||
                         marker_->marking_in_progress(Plane::kT);
    if (!marking) {
      stalled = 0;
      stall_reported = false;
      continue;
    }
    const std::uint64_t progress = reg_.total(obs::Counter::kMarkTasks) +
                                   reg_.total(obs::Counter::kReturnTasks) +
                                   total_rescues();
    if (progress != last_progress) {
      last_progress = progress;
      stalled = 0;
      stall_reported = false;
    } else if (++stalled >= wd_opt_.stall_samples && !stall_reported) {
      stall_reported = true;
      warn(obs::HealthKind::kMarkStall, 0, progress);
    }
  }
}

obs::TraceBuffer* ThreadEngine::enable_trace(std::size_t capacity) {
#if DGR_TRACE_ENABLED
  if (!trace_) {
    trace_ = std::make_unique<obs::TraceBuffer>(capacity);
    trace_->set_clock([this] { return now_us(); });
    marker_->set_trace(trace_.get());
    mutator_->set_trace(trace_.get());
    controller_->set_trace(trace_.get());
    auditor_.set_trace(trace_.get());
  }
  return trace_.get();
#else
  (void)capacity;
  return nullptr;
#endif
}

ThreadEngineStats ThreadEngine::stats() const {
  ThreadEngineStats s;
  s.tasks_executed = reg_.total(obs::Counter::kMarkTasks) +
                     reg_.total(obs::Counter::kReturnTasks) +
                     reg_.total(obs::Counter::kReductionTasks);
  s.remote_messages = reg_.total(obs::Counter::kRemoteMessages);
  s.local_messages = reg_.total(obs::Counter::kLocalMessages);
  s.bytes_sent = reg_.total(obs::Counter::kBytesSent);
  s.msg_batched = reg_.total(obs::Counter::kMsgBatched);
  s.batch_flushes = reg_.total(obs::Counter::kBatchFlush);
  s.backpressure_stalls = reg_.total(obs::Counter::kBackpressureStall);
  s.boundary_dedup = reg_.total(obs::Counter::kBoundaryDedup);
  s.steal_batches = reg_.total(obs::Counter::kStealBatches);
  s.steal_tasks = reg_.total(obs::Counter::kStealTasks);
  s.edge_cut = reg_.total(obs::Counter::kEdgeCut);
  s.edges_total = reg_.total(obs::Counter::kEdgesTotal);
  for (const auto& r : runq_)
    s.mailbox_high_water =
        std::max<std::uint64_t>(s.mailbox_high_water, r->q.high_water());
  return s;
}

}  // namespace dgr
