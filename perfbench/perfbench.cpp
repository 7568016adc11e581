// dgr_perfbench — one workload of the repo benchmark (perfbench/README.md).
//
//   dgr_perfbench --workload mark_heap|session_churn|cluster_sessions
//                 --seed N --seconds S --trace 0|1
//                 [--worker-bin PATH] [--spans PATH]
//
// Every layer is measured from outside: the benchmark times its own calls
// into the public API (Controller, DriverEngine::mutate through a timing
// decorator, SessionDriver, the engines' start/stats) and reads the counters
// and trace ring that API already exposes.
//
// --trace 0 reports the end-to-end metrics of one untraced pass. --trace 1
// runs an untraced reference pass and then a traced pass, each for half the
// time, and reports the per-layer metrics of the traced pass; the two
// passes' cycle_ms_p50 give the tracing overhead.
//
// Output: a metric table as '#' lines, then, as the last line, one JSON
// object {"correct","attempted","failed","metrics":{name:{value,unit}}}.
// Exit codes: 0 measured (correct or not: see "correct"); 2 usage;
// 3 unoptimised build or missing dgr_worker; 4 a metric had too few samples.
#include <dirent.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/oracle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/proc_engine.h"
#include "runtime/thread_engine.h"
#include "stats.h"
#include "util/rng.h"
#include "workload/session.h"

namespace {

using namespace dgr;
using perfbench::Clock;
using perfbench::Dist;
using perfbench::ns_between;
using perfbench::OpenLoop;
using perfbench::Span;
using std::chrono::microseconds;
using std::chrono::milliseconds;

// ---- Workloads ----

enum class Wl : std::uint8_t { kMarkHeap, kSessionChurn, kClusterSessions };

struct Spec {
  const char* name;
  Wl wl;
  std::uint32_t pes;
  microseconds tick;  // open-loop tick (mark_heap: read-probe period)
};

// 3 PE threads plus the driver thread fit a 4-core host; the cluster runs
// 4 PEs in 2 worker processes.
constexpr Spec kSpecs[] = {
    {"mark_heap", Wl::kMarkHeap, 3, microseconds(5000)},
    {"session_churn", Wl::kSessionChurn, 3, microseconds(2000)},
    {"cluster_sessions", Wl::kClusterSessions, 4, microseconds(8000)},
};

constexpr std::uint32_t kHeapVertices = 1u << 16;
constexpr std::uint32_t kClusterWorkers = 2;
constexpr std::uint32_t kClusterCycleEvery = 4;  // ticks per barrier cycle
// Session runs are cut into epochs of about this length, each on a fresh
// engine. The stream's injected request tasks are never executed (these
// engines run no reduction) and target permanent hot keys, so the pools
// only grow, and restructuring is O(pooled tasks): on one engine a 30 s
// run drifts into overload (README.md, "Pool growth").
constexpr double kEpochSeconds = 3.0;
constexpr std::size_t kTraceRing = 1u << 17;  // drained between cycles
constexpr int kHeapSetups = 5;  // mark_heap: set-ups per run for setup_s

// ---- Records kept in memory during the timed window ----

struct OpRec {
  bool mutate = true;    // false: inject (no gate, no callback)
  bool quiesce = false;  // submitted while restructuring was due
  std::uint64_t group = 0;  // the tick's span id
  Clock::time_point due, call, in, out, ret;
};

struct TickRec {
  std::uint64_t group = 0;        // span id, unique within the pass
  std::int64_t lag_ns = 0;        // how late the generator started the tick
  Clock::time_point apply_start;  // ops of the tick begin
  Clock::time_point end;
  std::size_t first_op = 0, ops = 0;  // slice of Pass::ops
};

// One timed cycle, resolved against the cycle observer and the trace ring
// of the rig it ran on. Trace offsets are µs after the cycle's kCycleStart.
struct CycleRec {
  std::uint64_t cycle = 0;  // the rig's cycle number
  std::uint64_t group = 0;  // span id, unique within the pass
  Clock::time_point start, started, waited, end;
  bool waited_set = false, done = false;
  std::size_t swept = 0, expunged = 0;
  std::int64_t t_begin = -1, t_end = -1, r_begin = -1, r_end = -1,
               restr_end = -1;
  std::uint32_t rescues = 0;
};

struct CycleDone {
  std::uint64_t cycle = 0;
  Clock::time_point end;
  std::size_t swept = 0, expunged = 0;
};

// Cycle completions, fed by Controller::set_cycle_observer (which runs on
// whichever thread finished the restructuring phase).
class CycleClock {
 public:
  void on_cycle(const CycleResult& r) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    done_.push_back({r.cycle, now, r.swept, r.expunged});
    completed_.store(done_.size(), std::memory_order_release);
  }
  std::size_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  // Spin until more than `seen` cycles completed or `until` passed.
  void wait_past(std::size_t seen, Clock::time_point until) const {
    while (completed() <= seen && Clock::now() < until) {
    }
  }
  CycleDone at(std::size_t i) const {
    std::lock_guard<std::mutex> lk(mu_);
    return done_[i];
  }
  std::vector<CycleDone> all() const {
    std::lock_guard<std::mutex> lk(mu_);
    return done_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<CycleDone> done_;
  std::atomic<std::size_t> completed_{0};
};

// The timing decorator: every mutation the driver submits is timed at
// submission, callback entry, callback exit and return. Gate wait is
// submission → callback entry (the vertex stripes plus the quiesce gate);
// mutator fn is the callback itself. Graph::total_live() is sampled inside
// the atomic section, which excludes the sweep.
class TimedDriver final : public workload::DriverEngine {
 public:
  TimedDriver(workload::DriverEngine& in, std::vector<OpRec>& ops)
      : in_(in), ops_(ops) {}

  void begin_window(std::size_t aux_vertices) {
    recording_ = true;
    aux_ = aux_vertices;
    last_cycles_ = in_.controller().cycles_completed();
  }
  void end_window() { recording_ = false; }
  void set_tick(std::uint64_t group, Clock::time_point due) {
    group_ = group;
    due_ = due;
  }

  std::size_t heap_peak() const { return heap_peak_; }
  // Σ over cycles completed in the window of the live set seen by the
  // first op after each (a cycle's sweep leaves only R-marked vertices).
  double marked_sum() const { return marked_sum_; }

  const char* name() const override { return in_.name(); }
  workload::Concurrency concurrency() const override {
    return in_.concurrency();
  }
  Graph& graph() override { return in_.graph(); }
  Controller& controller() override { return in_.controller(); }
  obs::MetricsRegistry& registry() override { return in_.registry(); }
  obs::TraceBuffer* trace() override { return in_.trace(); }
  void start_cycle(const CycleOptions& opt) override { in_.start_cycle(opt); }
  void wait_cycle_done() override { in_.wait_cycle_done(); }
  void wait_quiescent() override { in_.wait_quiescent(); }

  std::uint64_t mutate(std::span<const VertexId> vs,
                       const MutateFn& fn) override {
    if (!recording_) return in_.mutate(vs, fn);
    OpRec r;
    r.group = group_;
    r.due = due_;
    r.quiesce = in_.controller().restructure_due();
    std::size_t live = 0;
    std::uint64_t cycles = 0;
    r.call = Clock::now();
    const std::uint64_t us = in_.mutate(vs, [&](Graph& g, Mutator& m) {
      r.in = Clock::now();
      live = g.total_live();
      cycles = in_.controller().cycles_completed();
      fn(g, m);
      r.out = Clock::now();
    });
    r.ret = Clock::now();
    heap_peak_ = std::max(heap_peak_, live);
    if (cycles > last_cycles_) {
      marked_sum_ += static_cast<double>(cycles - last_cycles_) *
                     static_cast<double>(live - std::min(live, aux_));
      last_cycles_ = cycles;
    }
    ops_.push_back(r);
    return us;
  }

  void inject(Task t) override {
    if (!recording_) return in_.inject(std::move(t));
    OpRec r;
    r.group = group_;
    r.due = due_;
    r.mutate = false;
    r.call = r.in = r.out = Clock::now();
    in_.inject(std::move(t));
    r.ret = Clock::now();
    ops_.push_back(r);
  }

 private:
  workload::DriverEngine& in_;
  std::vector<OpRec>& ops_;
  bool recording_ = false;
  std::uint64_t group_ = 0;
  Clock::time_point due_;
  std::size_t aux_ = 0;
  std::uint64_t last_cycles_ = 0;
  std::size_t heap_peak_ = 0;
  double marked_sum_ = 0.0;
};

struct SetupTimes {
  Clock::time_point start, built, end;
  Clock::time_point engine_begin, engine_end;  // construct + start
  Clock::time_point driver_begin, driver_end;  // driver set-up + inputs
};

// Everything a pass measured, raw, summed over its epochs.
struct Pass {
  std::vector<double> setup_s;
  SetupTimes setup;  // the first set-up (span tree)
  std::vector<OpRec> ops;
  std::vector<TickRec> ticks;
  std::vector<CycleRec> cycles;
  std::uint64_t trace_events = 0, trace_dropped = 0;
  double window_s = 0.0;
  double marked_sum = 0.0;
  std::uint64_t sessions_closed = 0, sessions_rejected = 0;
  std::size_t live_sessions_peak = 0;
  std::array<std::uint64_t, obs::kNumCounters> counters{};  // window deltas
  ThreadEngineStats thr{};  // edge counts at start, mailbox high water
  ProcEngineStats proc{};   // window deltas
  double worker_rss_mb = 0.0;
  std::vector<std::string> failures;
  std::uint64_t groups = 0;  // span ids handed out
  // Per window (the one mark_heap window, or each session epoch): its first
  // op and first cycle, and its heap peak.
  std::vector<std::size_t> epoch_ops, epoch_cycles, epoch_heap_peak;
};

// ---- Set-up ----

// CPU placement, fixed so it cannot differ run to run: the driver thread
// gets the last CPU to itself, and every thread an engine starts (PE
// threads; cluster workers, one CPU each, and the controller's hub
// threads) is pinned round-robin over the others. Left unpinned on hosts
// with fewer than 2 CPUs.
std::vector<pid_t> threads_of(pid_t pid) {
  std::vector<pid_t> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d))
      if (e->d_name[0] != '.') out.push_back(std::atoi(e->d_name));
    ::closedir(d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class Placement {
 public:
  Placement() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 2)
      return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all)) cpus_.push_back(c);
    driver_ = cpus_.back();
    cpus_.pop_back();
  }
  // Call before an engine starts: remembers the threads that exist.
  void before_start() { before_ = threads_of(::getpid()); }
  // Call after it started: pins the threads it added, and `workers`'
  // threads, then the calling (driver) thread.
  void after_start(const std::vector<long>& workers) const {
    if (cpus_.empty()) return;
    std::size_t next = 0;
    for (long w : workers)
      for (pid_t tid : threads_of(static_cast<pid_t>(w)))
        pin(tid, cpus_[next % cpus_.size()]);
    next += workers.size();
    for (pid_t tid : threads_of(::getpid())) {
      if (std::binary_search(before_.begin(), before_.end(), tid)) continue;
      pin(tid, cpus_[next % cpus_.size()]);
      if (workers.empty()) ++next;  // one PE thread per CPU
    }
    pin(0, driver_);
  }

 private:
  static void pin(pid_t tid, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(tid, sizeof(one), &one);
  }
  std::vector<int> cpus_;
  int driver_ = -1;
  std::vector<pid_t> before_;
};

Placement& placement() {
  static Placement p;
  return p;
}

std::size_t live_non_aux(const Graph& g, PeId pe) {
  std::size_t n = 0;
  g.store(pe).for_each_live([&](std::uint32_t) { ++n; });
  return n;
}

// One engine, its driver and the workload's inputs. The destructor stops
// the engine (and reaps cluster workers) before anything it uses goes.
struct Rig {
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    if (thr) thr->stop();
    if (proc) proc->stop();
  }

  CycleClock clock;
  std::unique_ptr<Graph> g;
  std::unique_ptr<ThreadEngine> thr;
  std::unique_ptr<ProcEngine> proc;
  std::unique_ptr<workload::DriverEngine> inner;
  std::unique_ptr<TimedDriver> drv;
  std::unique_ptr<workload::SessionDriver> sessions;
  std::vector<workload::SessionEvent> schedule;
  BuiltGraph heap;
  std::vector<VertexId> probes;  // mark_heap: one read target per tick
  std::vector<std::size_t> baseline;  // live non-aux per PE after set-up
  std::size_t aux = 0;                // aux vertices after set-up
  obs::TraceBuffer* trace = nullptr;
  std::vector<obs::TraceEvent> events;  // drained from the ring
  std::size_t started = 0;              // cycles started on this rig
  SetupTimes t;

  Controller& ctl() { return inner->controller(); }
  obs::MetricsRegistry& reg() { return inner->registry(); }
};

std::uint32_t ticks_for(const Spec& s, double seconds) {
  return static_cast<std::uint32_t>(seconds * 1e6 /
                                    static_cast<double>(s.tick.count()));
}

// Builds the workload's inputs and engine; the decorator logs ops into
// `ops` once its window opens.
std::unique_ptr<Rig> make_rig(const Spec& s, std::uint64_t seed,
                              double seconds, bool traced,
                              const std::string& worker_bin,
                              std::vector<OpRec>& ops) {
  auto rig = std::make_unique<Rig>();
  Rig& r = *rig;
  r.t.start = Clock::now();
  if (s.wl == Wl::kMarkHeap) {
    r.g = std::make_unique<Graph>(s.pes, kHeapVertices / s.pes + 64);
    RandomGraphOptions o;
    o.num_vertices = kHeapVertices;
    o.avg_out_degree = 3.0;
    o.p_detached = 0.2;
    o.seed = seed;
    o.partition = PartitionStrategy::kGreedy;
    r.heap = build_random_graph(*r.g, o);
    r.t.built = r.t.engine_begin = Clock::now();
    r.thr = std::make_unique<ThreadEngine>(*r.g);
    r.thr->set_root(r.heap.root);
    r.thr->controller().prewarm_aux_roots();
    if (traced) r.trace = r.thr->enable_trace(kTraceRing);
    placement().before_start();
    r.thr->start();
    placement().after_start({});
    r.t.engine_end = r.t.driver_begin = Clock::now();
    r.inner = workload::make_driver(*r.thr);
    r.drv = std::make_unique<TimedDriver>(*r.inner, ops);
    Rng rng = Rng::substream(seed, 0x9B0B);
    r.probes.resize(ticks_for(s, seconds) + 1);
    for (VertexId& v : r.probes)
      v = r.heap.vertices[rng.below(r.heap.vertices.size())];
    r.t.driver_end = Clock::now();
  } else {
    workload::WorkloadOptions w;
    w.seed = seed;
    w.pes = s.pes;
    w.rate = 2.0;
    w.ticks = ticks_for(s, seconds);
    w.cycle_every = kClusterCycleEvery;
    r.g = std::make_unique<Graph>(s.pes, workload::required_capacity(w));
    // The driver's fixture is built before any PE thread or worker runs
    // (as dgr_soak does): construct the engine, set up through the driver,
    // and only then start it.
    r.t.built = r.t.driver_begin = Clock::now();
    if (s.wl == Wl::kClusterSessions) {
      ProcOptions popt;
      popt.workers = kClusterWorkers;
      // Loopback TCP rather than a Unix socket: the uds hub path is fixed
      // under /tmp, and the benchmark writes only inside its checkout.
      popt.tcp = true;
      popt.worker_bin = worker_bin;
      r.proc = std::make_unique<ProcEngine>(*r.g, popt);
      r.inner = workload::make_driver(*r.proc);
    } else {
      r.thr = std::make_unique<ThreadEngine>(*r.g);
      r.inner = workload::make_driver(*r.thr);
    }
    r.drv = std::make_unique<TimedDriver>(*r.inner, ops);
    r.sessions = std::make_unique<workload::SessionDriver>(*r.drv, w);
    r.sessions->setup();
    r.schedule = workload::generate_schedule(w);
    // Fixed footprint after set-up (the dgr_soak leak rule's baseline).
    for (PeId pe = 0; pe < r.g->num_pes(); ++pe) {
      r.g->store(pe).set_fixed_capacity(true);
      r.baseline.push_back(live_non_aux(*r.g, pe));
    }
    r.t.driver_end = r.t.engine_begin = Clock::now();
    placement().before_start();
    std::vector<long> workers;
    if (r.thr) {
      if (traced) r.trace = r.thr->enable_trace(kTraceRing);
      r.thr->start();
    } else {
      if (traced) r.trace = r.proc->enable_trace(kTraceRing);
      r.proc->start();
      for (std::uint32_t w = 0; w < r.proc->num_workers(); ++w)
        workers.push_back(r.proc->worker_pid(w));
    }
    placement().after_start(workers);
    r.t.engine_end = Clock::now();
  }
  r.ctl().set_cycle_observer(
      [&clock = r.clock](const CycleResult& res) { clock.on_cycle(res); });
  std::size_t non_aux = 0;
  for (PeId pe = 0; pe < r.g->num_pes(); ++pe)
    non_aux += live_non_aux(*r.g, pe);
  r.aux = r.g->total_live() - non_aux;
  r.t.end = Clock::now();
  return rig;
}

// ---- Timing helpers ----

// The generator never sleeps: it spins on its own CPU (see Placement). On
// a virtualised 4-core host a 1 ms sleep woke 0.1 ms late at p50 and up to
// 6 ms late at the tail, and that lateness would be charged to the program.
void wait_until(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

// Only called where no marking or restructuring runs, so no event can fall
// between the snapshot and the clear.
void drain_trace(Rig& r, Pass& p) {
  if (!r.trace) return;
  std::vector<obs::TraceEvent> ev = r.trace->snapshot();
  p.trace_dropped += r.trace->dropped();
  r.trace->clear();
  r.events.insert(r.events.end(), ev.begin(), ev.end());
}

// Window deltas of the registry and engine counters.
class EngineDelta {
 public:
  explicit EngineDelta(Rig& r) : r_(r) {
    for (std::size_t i = 0; i < obs::kNumCounters; ++i)
      c0_[i] = r.reg().total(static_cast<obs::Counter>(i));
    if (r.proc) proc0_ = r.proc->stats();
  }
  void add_to(Pass& p) const {
    for (std::size_t i = 0; i < obs::kNumCounters; ++i)
      p.counters[i] += r_.reg().total(static_cast<obs::Counter>(i)) - c0_[i];
    if (r_.thr) {
      const ThreadEngineStats t = r_.thr->stats();
      p.thr.edge_cut = t.edge_cut;
      p.thr.edges_total = t.edges_total;
      p.thr.mailbox_high_water =
          std::max(p.thr.mailbox_high_water, t.mailbox_high_water);
    }
    if (r_.proc) {
      const ProcEngineStats s = r_.proc->stats();
      p.proc.handoff_bytes += s.handoff_bytes - proc0_.handoff_bytes;
      p.proc.handoff_delta_bytes +=
          s.handoff_delta_bytes - proc0_.handoff_delta_bytes;
      TransportStats& d = p.proc.transport;
      const TransportStats& a = proc0_.transport;
      d.frames_sent += s.transport.frames_sent - a.frames_sent;
      d.frames_received += s.transport.frames_received - a.frames_received;
      d.bytes_sent += s.transport.bytes_sent - a.bytes_sent;
      d.bytes_received += s.transport.bytes_received - a.bytes_received;
      d.frames_relayed += s.transport.frames_relayed - a.frames_relayed;
    }
  }

 private:
  Rig& r_;
  std::array<std::uint64_t, obs::kNumCounters> c0_{};
  ProcEngineStats proc0_{};
};

void start_cycle(Rig& r, Pass& p, const CycleOptions& copt) {
  CycleRec c;
  c.cycle = r.ctl().cycles_completed() + 1;
  c.group = p.groups++;
  c.start = Clock::now();
  r.inner->start_cycle(copt);
  c.started = Clock::now();
  p.cycles.push_back(c);
  ++r.started;
}

// Engines report idle before the cycle observer has run; wait for it.
void await_observed(Rig& r) {
  if (r.started) r.clock.wait_past(r.started - 1, Clock::time_point::max());
}

// Fill this rig's timed cycles (p.cycles[from..]) from its cycle observer
// and its drained trace events.
void resolve_cycles(Rig& r, Pass& p, std::size_t from) {
  std::map<std::uint64_t, CycleDone> done;
  for (const CycleDone& d : r.clock.all()) done[d.cycle] = d;
  struct Ts {
    std::int64_t start = -1, t_begin = -1, t_end = -1, r_begin = -1,
                 r_end = -1, end = -1;
    std::uint32_t rescues = 0;
  };
  std::map<std::uint64_t, Ts> ts;
  std::uint64_t cur = 0;
  for (const obs::TraceEvent& e : r.events) {
    const auto t = static_cast<std::int64_t>(e.ts);
    switch (e.type) {
      case obs::EventType::kCycleStart:
        cur = e.cycle;
        ts[cur].start = t;
        break;
      case obs::EventType::kPhaseBegin:
        (e.plane == Plane::kT ? ts[e.cycle].t_begin : ts[e.cycle].r_begin) = t;
        break;
      case obs::EventType::kPhaseEnd:
        (e.plane == Plane::kT ? ts[e.cycle].t_end : ts[e.cycle].r_end) = t;
        break;
      case obs::EventType::kCycleEnd:
        ts[e.cycle].end = t;
        break;
      case obs::EventType::kRescueWave:  // cycle field unset: stream order
        if (cur) ++ts[cur].rescues;
        break;
      default:
        break;
    }
  }
  p.trace_events += r.events.size();
  r.events.clear();
  for (std::size_t i = from; i < p.cycles.size(); ++i) {
    CycleRec& c = p.cycles[i];
    if (const auto d = done.find(c.cycle); d != done.end()) {
      c.done = true;
      c.end = d->second.end;
      c.swept = d->second.swept;
      c.expunged = d->second.expunged;
    }
    const auto it = ts.find(c.cycle);
    if (it == ts.end() || it->second.start < 0) continue;
    const Ts& x = it->second;
    const auto rel = [&](std::int64_t v) { return v < 0 ? -1 : v - x.start; };
    c.t_begin = rel(x.t_begin);
    c.t_end = rel(x.t_end);
    c.r_begin = rel(x.r_begin);
    c.r_end = rel(x.r_end);
    c.restr_end = rel(x.end);
    c.rescues = x.rescues;
  }
}

// Every live non-aux vertex is R-marked with the Oracle's priority, and
// there are exactly |R| of them.
bool marks_match(Rig& r, const Oracle& o, std::uint64_t count_r) {
  std::uint64_t n = 0;
  bool ok = true;
  Marker& mk = r.thr->marker();
  r.g->for_each_live([&](VertexId v) {
    ++n;
    if (!mk.is_marked(Plane::kR, v) ||
        mk.prior(Plane::kR, v) != o.prior_at(v))
      ok = false;
  });
  return ok && n == count_r;
}

// ---- mark_heap: back-to-back M_R cycles over a static heap ----
//
// The driver starts cycles and, once per tick, submits a read-only probe
// (one vertex, no graph change) if the collector is marking at that
// moment: the latency of a reader racing the marker on a large heap. A
// probe due while the controller restructures or is idle is skipped; the
// restructuring pause is carried by the session workloads.
void run_mark_heap(const Spec& s, Rig& r, Pass& p, double seconds) {
  const CycleOptions copt{false};
  // Warm-up: the first cycle sweeps the detached garbage, exactly GAR.
  const Oracle o(*r.g, r.heap.root, {});
  const std::uint64_t count_r = o.count_R();
  const std::size_t gar = o.count_GAR();
  start_cycle(r, p, copt);
  await_observed(r);
  p.cycles.clear();
  if (r.clock.at(0).swept != gar)
    p.failures.push_back("warm-up swept " +
                         std::to_string(r.clock.at(0).swept) +
                         " != Oracle GAR " + std::to_string(gar));
  if (!marks_match(r, o, count_r))
    p.failures.push_back("warm-up marks differ from the Oracle's R");
  drain_trace(r, p);
  r.events.clear();

  const EngineDelta delta(r);
  r.drv->begin_window(r.aux);
  const Clock::time_point t0 = Clock::now();
  const auto after = [&](double x) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(x));
  };
  const Clock::time_point deadline = after(seconds);
  const OpenLoop loop(t0, s.tick);
  Controller& ctl = r.ctl();
  double check_s = 0.0;
  std::size_t seen = 1;
  std::uint32_t next = 0;
  Clock::time_point window_end = t0;
  start_cycle(r, p, copt);
  for (bool in_flight = true; in_flight;) {
    const Clock::time_point pdue = loop.due(next);
    r.clock.wait_past(seen, pdue);
    if (r.clock.completed() > seen) {
      const CycleDone d = r.clock.at(seen++);
      const Clock::time_point c0 = Clock::now();
      if (d.swept != 0 || !marks_match(r, o, count_r))
        p.failures.push_back("cycle " + std::to_string(d.cycle) +
                             " marked a set other than the Oracle's R");
      check_s += std::chrono::duration<double>(Clock::now() - c0).count();
      window_end = d.end;
      if (Clock::now() < deadline) {
        drain_trace(r, p);
        start_cycle(r, p, copt);
      } else {
        in_flight = false;
      }
      // Probes that fell due while the collector was idle are skipped.
      while (loop.due(next) < Clock::now()) ++next;
      continue;
    }
    if (Clock::now() < pdue) continue;
    const std::uint32_t t = next++;
    if (ctl.idle() || ctl.restructure_due()) continue;
    TickRec tr;
    tr.group = p.groups++;
    tr.lag_ns = loop.lag_ns(t, Clock::now());
    tr.apply_start = Clock::now();
    tr.first_op = p.ops.size();
    r.drv->set_tick(tr.group, pdue);
    const VertexId v = r.probes[t % r.probes.size()];
    const VertexId touch[1] = {v};
    std::size_t sink = 0;
    r.drv->mutate(touch, [&](Graph& g, Mutator&) {
      sink = g.at(v).live ? g.at(v).args.size() : 0;
    });
    (void)sink;
    tr.end = Clock::now();
    tr.ops = 1;
    p.ticks.push_back(tr);
  }
  r.drv->end_window();
  delta.add_to(p);
  drain_trace(r, p);
  resolve_cycles(r, p, 0);
  // The driver's own checks between cycles are not the collector's time.
  p.window_s +=
      std::chrono::duration<double>(window_end - t0).count() - check_s;
  p.marked_sum +=
      static_cast<double>(count_r) * static_cast<double>(p.cycles.size());
  p.epoch_ops.push_back(0);
  p.epoch_cycles.push_back(0);
  p.epoch_heap_peak.push_back(r.drv->heap_peak());
  p.sessions_closed += p.ticks.size();  // each probe is a one-op session
}

// ---- session_churn / cluster_sessions: one epoch of the session stream ----
void run_sessions(const Spec& s, Rig& r, Pass& p) {
  const bool barrier =
      r.inner->concurrency() == workload::Concurrency::kBarrier;
  // M_T + M_R on the cluster; M_R only on the threaded engine.
  const CycleOptions copt{barrier};
  const std::uint32_t last = r.schedule.empty() ? 0 : r.schedule.back().tick;
  Controller& ctl = r.ctl();
  const std::size_t first_cycle = p.cycles.size();

  const EngineDelta delta(r);
  p.epoch_ops.push_back(p.ops.size());
  p.epoch_cycles.push_back(p.cycles.size());
  r.drv->begin_window(r.aux);
  const Clock::time_point t0 = Clock::now() + milliseconds(2);
  const OpenLoop loop(t0, s.tick);
  for (std::uint32_t t = 0; t <= last; ++t) {
    wait_until(loop.due(t));
    TickRec tr;
    tr.group = p.groups++;
    tr.lag_ns = loop.lag_ns(t, Clock::now());
    // As SessionDriver::run: overlapped engines start a cycle whenever the
    // controller is idle; barrier engines run one every cycle_every ticks,
    // due with the tick it opens, so that tick's ops wait for it.
    if (!barrier && ctl.idle()) {
      drain_trace(r, p);
      start_cycle(r, p, copt);
    } else if (barrier && t > 0 && t % kClusterCycleEvery == 0) {
      drain_trace(r, p);
      start_cycle(r, p, copt);
      r.inner->wait_cycle_done();
      p.cycles.back().waited = Clock::now();
      p.cycles.back().waited_set = true;
      await_observed(r);
    }
    tr.first_op = p.ops.size();
    r.drv->set_tick(tr.group, loop.due(t));
    tr.apply_start = Clock::now();
    r.sessions->apply_tick(r.schedule, t);
    tr.end = Clock::now();
    tr.ops = p.ops.size() - tr.first_op;
    p.ticks.push_back(tr);
    p.live_sessions_peak =
        std::max(p.live_sessions_peak, r.sessions->live_sessions());
  }
  r.inner->wait_cycle_done();
  await_observed(r);
  r.drv->end_window();
  p.window_s += std::chrono::duration<double>(Clock::now() - t0).count();
  delta.add_to(p);
  p.marked_sum += r.drv->marked_sum();
  p.epoch_heap_peak.push_back(r.drv->heap_peak());
  p.sessions_closed += r.sessions->totals().closed;
  p.sessions_rejected += r.sessions->totals().rejected;

  // Two drain cycles sweep every retired region (SessionDriver::run).
  for (int i = 0; i < 2; ++i) {
    r.inner->start_cycle(copt);
    r.inner->wait_cycle_done();
  }
  r.inner->wait_quiescent();
  drain_trace(r, p);
  resolve_cycles(r, p, first_cycle);

  // Correctness: the dgr_soak rules.
  const workload::SoakTotals& tot = r.sessions->totals();
  if (r.sessions->live_sessions() != 0 || tot.opened != tot.closed)
    p.failures.push_back("sessions left open: " +
                         std::to_string(r.sessions->live_sessions()));
  if (tot.divergence) p.failures.push_back("replica divergence");
  std::uint64_t leaked = 0;
  for (PeId pe = 0; pe < r.g->num_pes(); ++pe) {
    const std::size_t live = live_non_aux(*r.g, pe);
    if (live > r.baseline[pe]) leaked += live - r.baseline[pe];
  }
  if (leaked)
    p.failures.push_back("leaked " + std::to_string(leaked) +
                         " vertices after the drain cycles");
  if (r.reg().total(obs::Counter::kTelemetryDropped))
    p.failures.push_back("telemetry dropped");
  if (r.proc && (r.proc->failed() || r.proc->stats().workers_lost))
    p.failures.push_back("a cluster worker was lost");
}

void keep_setup(Pass& p, const Rig& r) {
  if (p.setup_s.empty()) p.setup = r.t;
  p.setup_s.push_back(
      std::chrono::duration<double>(r.t.end - r.t.start).count());
}

// mark_heap: kHeapSetups set-ups (all but the last torn down), then one
// timed window. Session workloads: epochs of about kEpochSeconds, each a
// set-up of a fresh engine with its own seed, then its share of the time.
Pass run_pass(const Spec& s, std::uint64_t seed, double seconds, bool traced,
              const std::string& worker_bin) {
  Pass p;
  if (s.wl == Wl::kMarkHeap) {
    std::unique_ptr<Rig> rig;
    for (int i = 0; i < kHeapSetups; ++i) {
      rig.reset();
      rig = make_rig(s, seed, seconds, traced, worker_bin, p.ops);
      keep_setup(p, *rig);
    }
    run_mark_heap(s, *rig, p, seconds);
  } else {
    const int epochs =
        std::max(1, static_cast<int>(std::lround(seconds / kEpochSeconds)));
    for (int e = 0; e < epochs; ++e) {
      // Epoch e replays the generator on a decorrelated seed (as dgr_soak's
      // epochs do); the whole run is still a pure function of --seed.
      const std::uint64_t eseed =
          seed + static_cast<std::uint64_t>(e) * 0x9E3779B97F4A7C15ull;
      const auto rig =
          make_rig(s, eseed, seconds / epochs, traced, worker_bin, p.ops);
      keep_setup(p, *rig);
      run_sessions(s, *rig, p);
    }
  }
  if (s.wl == Wl::kClusterSessions) {
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);  // the largest reaped worker
    p.worker_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  if (traced && p.trace_dropped)
    p.failures.push_back("trace ring dropped " +
                         std::to_string(p.trace_dropped) + " events");
  return p;
}

// ---- Metrics ----

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  std::size_t n = 0;        // samples behind a percentile or median
  bool below_rule = false;  // a percentile with < 10 samples beyond it
};

class Report {
 public:
  void add(const std::string& name, double v, const char* unit,
           std::size_t n = 0) {
    m_.push_back({name, v, unit, n});
  }
  // Per-layer percentiles are diagnostics with no bound: below the rule
  // they still report the nearest-rank value, flagged in the table.
  void layer_pct(const std::string& name, Dist& d, double p,
                 const char* unit) {
    const std::optional<double> v = d.pct(p);
    add(name, v ? *v : d.raw_pct(p), unit, d.n());
    m_.back().below_rule = !v && d.n() > 0;
  }
  void missing(std::string what) { missing_.push_back(std::move(what)); }
  const std::vector<Metric>& metrics() const { return m_; }
  const std::vector<std::string>& missing() const { return missing_; }

 private:
  std::vector<Metric> m_;
  std::vector<std::string> missing_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ms(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) / 1e6;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// Cycle durations (start_cycle → observer) of the timed cycles.
Dist cycle_ms(const Pass& p) {
  Dist out;
  for (const CycleRec& c : p.cycles)
    if (c.done) out.add(ms(c.start, c.end));
  return out;
}

// Per-window medians: the value of each window (mark_heap's one timed
// window, or each 3 s session epoch) under the reporting rule, then the
// median over windows, so one disturbed epoch does not move the run.
// `per_window` returns nullopt when a window lacks samples.
template <typename F>
void window_median(Report& rep, const std::string& name, const Pass& p,
                   const char* unit, std::size_t n, F per_window) {
  std::vector<double> vals;
  for (std::size_t w = 0; w < p.epoch_ops.size(); ++w) {
    const std::optional<double> v = per_window(w);
    if (!v) return rep.missing(name + " (window " + std::to_string(w) +
                               " had too few samples)");
    vals.push_back(*v);
  }
  rep.add(name, median(vals), unit, n);
}

// [first, last) of window w in a vector indexed by `starts`.
std::pair<std::size_t, std::size_t> window(const std::vector<std::size_t>& starts,
                                           std::size_t w, std::size_t total) {
  return {starts[w], w + 1 < starts.size() ? starts[w + 1] : total};
}

void end_to_end(Pass& p, Report& rep) {
  rep.add("setup_s", median(p.setup_s), "s", p.setup_s.size());
  const Dist all = cycle_ms(p);
  window_median(rep, "cycle_ms_p50", p, "ms", all.n(), [&](std::size_t w) {
    const auto [a, b] = window(p.epoch_cycles, w, p.cycles.size());
    Dist d;
    for (std::size_t i = a; i < b; ++i)
      if (p.cycles[i].done) d.add(ms(p.cycles[i].start, p.cycles[i].end));
    return d.pct(50);
  });
  rep.add("marks_per_s", ratio(p.marked_sum, p.window_s), "1/s");
  rep.add("sessions_per_s",
          ratio(static_cast<double>(p.sessions_closed), p.window_s), "1/s");
  window_median(rep, "heap_peak_vertices", p, "vertices",
                p.epoch_heap_peak.size(), [&](std::size_t w) {
                  return std::optional<double>(
                      static_cast<double>(p.epoch_heap_peak[w]));
                });
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
}

// The user-facing latencies that are too noisy on a shared virtualised host
// to carry a bound (README.md, "Measured spread"): reported with the
// per-layer metrics, from the untraced reference pass.
void latencies(Pass& ref, Report& rep) {
  Dist op_us;
  for (const OpRec& o : ref.ops)
    op_us.add(static_cast<double>(ns_between(o.due, o.ret)) / 1e3);
  rep.layer_pct("op_us_p50", op_us, 50, "us");
  rep.layer_pct("op_us_p99", op_us, 99, "us");
  Dist cyc = cycle_ms(ref);
  rep.layer_pct("cycle_ms_p90", cyc, 90, "ms");
}

enum SpanName : std::uint16_t {
  kSetup, kGraphBuild, kEngineStart, kDriverSetup, kTick, kOp, kGateWait,
  kMutatorFn, kGateRelease, kCycle, kPlaneT, kPlaneR, kRestructure,
  kNumSpanNames
};
constexpr const char* kSpanNames[kNumSpanNames] = {
    "setup", "graph.build", "runtime.engine_start", "workload.driver_setup",
    "workload.tick", "workload.op", "runtime.gate_wait", "core.mutator_fn",
    "runtime.gate_release", "core.cycle", "core.plane.T", "core.plane.R",
    "core.restructure"};

// The pass as spans, ns from the first set-up's start: setup →
// {graph.build, runtime.engine_start, workload.driver_setup};
// workload.tick → workload.op → {runtime.gate_wait, core.mutator_fn,
// runtime.gate_release (callback exit → mutate return: the unlocks)};
// core.cycle → {core.plane.T, core.plane.R, core.restructure}, placed from
// the program's own µs trace events. Ticks and cycles carry span ids.
std::vector<Span> build_spans(const Pass& p) {
  const Clock::time_point base = p.setup.start;
  const auto at = [&](Clock::time_point t) { return ns_between(base, t); };
  std::vector<Span> out;
  const auto push = [&](std::uint16_t name, std::int32_t parent,
                        std::uint64_t group, std::int64_t a, std::int64_t b) {
    out.push_back({name, parent, group, a, b});
    return static_cast<std::int32_t>(out.size() - 1);
  };
  const SetupTimes& st = p.setup;
  const std::int32_t setup = push(kSetup, -1, 0, at(st.start), at(st.end));
  push(kGraphBuild, setup, 0, at(st.start), at(st.built));
  push(kEngineStart, setup, 0, at(st.engine_begin), at(st.engine_end));
  push(kDriverSetup, setup, 0, at(st.driver_begin), at(st.driver_end));
  for (const TickRec& t : p.ticks) {
    const std::int32_t tick =
        push(kTick, -1, t.group, at(t.apply_start), at(t.end));
    for (std::size_t i = t.first_op; i < t.first_op + t.ops; ++i) {
      const OpRec& o = p.ops[i];
      const std::int32_t op = push(kOp, tick, t.group, at(o.call), at(o.ret));
      if (!o.mutate) continue;
      push(kGateWait, op, t.group, at(o.call), at(o.in));
      push(kMutatorFn, op, t.group, at(o.in), at(o.out));
      push(kGateRelease, op, t.group, at(o.out), at(o.ret));
    }
  }
  for (const CycleRec& c : p.cycles) {
    if (!c.done) continue;
    const std::int64_t a = at(c.start);
    const std::int32_t cyc = push(kCycle, -1, c.group, a, at(c.end));
    const auto rel = [&](std::int64_t us) { return a + us * 1000; };
    if (c.t_begin >= 0 && c.t_end >= 0)
      push(kPlaneT, cyc, c.group, rel(c.t_begin), rel(c.t_end));
    if (c.r_begin >= 0 && c.r_end >= 0)
      push(kPlaneR, cyc, c.group, rel(c.r_begin), rel(c.r_end));
    const std::int64_t last_end = std::max(c.t_end, c.r_end);
    if (last_end >= 0 && c.restr_end >= 0)
      push(kRestructure, cyc, c.group, rel(last_end), rel(c.restr_end));
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "dgr_perfbench: cannot write '%s'\n", path.c_str());
    return;
  }
  for (const Span& s : spans)
    f << "{\"name\":\"" << kSpanNames[s.name] << "\",\"start_ns\":"
      << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"parent\":" << s.parent << ",\"id\":" << s.group << "}\n";
}

void per_layer(Pass& p, const Pass& ref, Report& rep,
               const std::string& spans_path) {
  const auto counter = [&](obs::Counter c) {
    return static_cast<double>(p.counters[static_cast<std::size_t>(c)]);
  };
  Dist cyc = cycle_ms(p);
  const double cycles = static_cast<double>(cyc.n());
  const auto per_cycle = [&](double x) { return ratio(x, cycles); };
  const std::vector<Span> spans = build_spans(p);
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  if (!spans_path.empty()) write_spans(spans_path, spans);

  // graph
  rep.add("graph.build_ms", ms(p.setup.start, p.setup.built), "ms");
  rep.add("graph.edge_cut_share",
          ratio(static_cast<double>(p.thr.edge_cut),
                static_cast<double>(p.thr.edges_total)),
          "share");

  // core
  const double marks = counter(obs::Counter::kMarkTasks);
  const double returns = counter(obs::Counter::kReturnTasks);
  rep.add("core.mark_tasks_per_cycle", per_cycle(marks), "count");
  rep.add("core.return_tasks_per_cycle", per_cycle(returns), "count");
  rep.add("core.marks_per_marked_vertex", ratio(marks, p.marked_sum),
          "ratio");
  Dist mark_r, mark_t, restr;
  double rescues = 0.0, swept = 0.0, expunged = 0.0;
  for (const CycleRec& c : p.cycles) {
    if (!c.done) continue;
    if (c.r_begin >= 0 && c.r_end >= 0)
      mark_r.add(static_cast<double>(c.r_end - c.r_begin) / 1e3);
    if (c.t_begin >= 0 && c.t_end >= 0)
      mark_t.add(static_cast<double>(c.t_end - c.t_begin) / 1e3);
    const std::int64_t last_end = std::max(c.t_end, c.r_end);
    if (last_end >= 0 && c.restr_end >= 0)
      restr.add(static_cast<double>(c.restr_end - last_end) / 1e3);
    rescues += c.rescues;
    swept += static_cast<double>(c.swept);
    expunged += static_cast<double>(c.expunged);
  }
  rep.layer_pct("core.mark_r_ms_p50", mark_r, 50, "ms");
  rep.layer_pct("core.mark_t_ms_p50", mark_t, 50, "ms");  // 0: no M_T ran
  rep.layer_pct("core.restructure_ms_p50", restr, 50, "ms");
  rep.layer_pct("core.restructure_ms_p90", restr, 90, "ms");
  rep.add("core.swept_per_cycle", per_cycle(swept), "count");
  rep.add("core.expunged_per_cycle", per_cycle(expunged), "count");
  rep.add("core.rescue_waves_per_cycle", per_cycle(rescues), "count");
  Dist fn_ns, gate_ns, release_ns;
  double gate_sum = 0.0, gate_quiesce = 0.0;
  for (const OpRec& o : p.ops) {
    if (!o.mutate) continue;
    const auto g = static_cast<double>(ns_between(o.call, o.in));
    fn_ns.add(static_cast<double>(ns_between(o.in, o.out)));
    release_ns.add(static_cast<double>(ns_between(o.out, o.ret)));
    gate_ns.add(g);
    gate_sum += g;
    if (o.quiesce) gate_quiesce += g;
  }
  rep.layer_pct("core.mutator_fn_ns_p50", fn_ns, 50, "ns");
  rep.layer_pct("core.mutator_fn_ns_p99", fn_ns, 99, "ns");

  // runtime
  rep.layer_pct("runtime.gate_wait_ns_p50", gate_ns, 50, "ns");
  rep.layer_pct("runtime.gate_wait_ns_p99", gate_ns, 99, "ns");
  rep.add("runtime.gate_wait_quiesce_share", ratio(gate_quiesce, gate_sum),
          "share");
  rep.layer_pct("runtime.gate_release_ns_p50", release_ns, 50, "ns");
  rep.add("runtime.steal_tasks_per_cycle",
          per_cycle(counter(obs::Counter::kStealTasks)), "count");
  rep.add("runtime.backpressure_stalls_per_cycle",
          per_cycle(counter(obs::Counter::kBackpressureStall)), "count");
  rep.add("runtime.mailbox_high_water",
          static_cast<double>(p.thr.mailbox_high_water), "count");
  Dist start_ms, wait_ms;
  for (const CycleRec& c : p.cycles) {
    if (!c.done) continue;
    start_ms.add(ms(c.start, c.started));
    // Barrier engines block in wait_cycle_done; elsewhere the wait is
    // start_cycle's return → completion.
    wait_ms.add(ms(c.started, c.waited_set ? c.waited : c.end));
  }
  rep.layer_pct("runtime.start_cycle_ms_p50", start_ms, 50, "ms");
  rep.layer_pct("runtime.wait_cycle_ms_p50", wait_ms, 50, "ms");
  const auto handoff = static_cast<double>(p.proc.handoff_bytes);
  rep.add("runtime.handoff_bytes_per_cycle", per_cycle(handoff), "bytes");
  rep.add("runtime.handoff_delta_share",
          ratio(static_cast<double>(p.proc.handoff_delta_bytes), handoff),
          "share");
  rep.add("runtime.engine_start_ms",
          ms(p.setup.engine_begin, p.setup.engine_end), "ms");
  rep.add("runtime.worker_peak_rss_mb", p.worker_rss_mb, "MiB");

  // net
  const double remote = counter(obs::Counter::kRemoteMessages);
  const double dedup = counter(obs::Counter::kBoundaryDedup);
  rep.add("net.remote_msgs_per_cycle", per_cycle(remote), "count");
  rep.add("net.local_msgs_per_cycle",
          per_cycle(counter(obs::Counter::kLocalMessages)), "count");
  rep.add("net.boundary_dedup_share", ratio(dedup, dedup + remote), "share");
  rep.add("net.msgs_per_batch",
          ratio(counter(obs::Counter::kMsgBatched),
                counter(obs::Counter::kBatchFlush)),
          "count");
  rep.add("net.bytes_encoded_per_task",
          ratio(counter(obs::Counter::kBytesSent), marks + returns), "bytes");
  const TransportStats& ts = p.proc.transport;
  rep.add("net.hub_frames_per_cycle",
          per_cycle(static_cast<double>(ts.frames_sent + ts.frames_received)),
          "count");
  rep.add("net.hub_bytes_per_cycle",
          per_cycle(static_cast<double>(ts.bytes_sent + ts.bytes_received)),
          "bytes");
  rep.add("net.relayed_frames_per_cycle",
          per_cycle(static_cast<double>(ts.frames_relayed)), "count");

  // workload
  Dist lag_us;
  for (const TickRec& t : p.ticks)
    lag_us.add(static_cast<double>(t.lag_ns) / 1e3);
  rep.layer_pct("workload.gen_lag_us_p50", lag_us, 50, "us");
  rep.layer_pct("workload.gen_lag_us_p99", lag_us, 99, "us");
  // Driver time is the ticks' self time: apply_tick minus the time inside
  // mutate/inject. Coverage is the share of the ticks' time that gate wait
  // + mutator fn + driver time account for; the rest is mostly the gate
  // release (runtime.gate_release).
  double tick_ns = 0.0, driver_ns = 0.0, gate_fn_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    if (spans[i].name == kTick) {
      tick_ns += d;
      driver_ns += static_cast<double>(self[i]);
    } else if (spans[i].name == kGateWait || spans[i].name == kMutatorFn) {
      gate_fn_ns += d;
    }
  }
  const auto nops = static_cast<double>(p.ops.size());
  rep.add("workload.driver_ns_per_op", ratio(driver_ns, nops), "ns");
  rep.add("workload.span_coverage", ratio(gate_fn_ns + driver_ns, tick_ns),
          "share");
  rep.add("workload.ops_per_tick",
          ratio(nops, static_cast<double>(p.ticks.size())), "count");
  rep.add("workload.live_sessions_peak",
          static_cast<double>(p.live_sessions_peak), "count");
  rep.add("workload.sessions_rejected",
          static_cast<double>(p.sessions_rejected), "count");

  // obs
  rep.add("obs.trace_events", static_cast<double>(p.trace_events), "count");
  rep.add("obs.trace_dropped", static_cast<double>(p.trace_dropped), "count");
  Dist ref_cyc = cycle_ms(ref);
  const double traced50 = cyc.raw_pct(50), ref50 = ref_cyc.raw_pct(50);
  rep.add("obs.tracing_overhead_share",
          ref50 > 0.0 ? traced50 / ref50 - 1.0 : 0.0, "share");
}

void print_json(const Report& rep, bool correct, std::uint64_t attempted,
                std::uint64_t failed) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : rep.metrics()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (!first) out += ",";
    first = false;
    out += "\"" + m.name + "\":{\"value\":" + buf + ",\"unit\":\"" + m.unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  const std::string p(buf, static_cast<std::size_t>(n));
  const auto slash = p.rfind('/');
  return slash == std::string::npos ? "." : p.substr(0, slash);
}

int usage() {
  std::fprintf(stderr,
               "usage: dgr_perfbench --workload "
               "mark_heap|session_churn|cluster_sessions --seed N "
               "--seconds S --trace 0|1 [--worker-bin PATH] "
               "[--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string worker_bin, spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      for (const Spec& s : kSpecs)
        if (!std::strcmp(s.name, v)) spec = &s;
      if (!spec) return usage();
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(v);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--worker-bin") {
      worker_bin = v;
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      return usage();
    }
  }
  if (!spec || !(seconds > 0.0 && seconds <= 3600.0) ||
      (trace != 0 && trace != 1))
    return usage();

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  const bool optimized = build_type == "Release" ||
                         build_type == "RelWithDebInfo" ||
                         build_type == "MinSizeRel";
#else
  const bool optimized = false;
#endif
  std::printf("# build: type=%s compiler=%s optimized=%d\n",
              build_type.c_str(), __VERSION__, optimized ? 1 : 0);
  if (!optimized) {
    std::fprintf(stderr,
                 "dgr_perfbench: refusing to report from an unoptimised "
                 "build (CMAKE_BUILD_TYPE=%s)\n",
                 build_type.c_str());
    return 3;
  }
  if (spec->wl == Wl::kClusterSessions) {
    // Fail fast: ProcEngine::start() would otherwise wait out the worker
    // registration timeout and abort.
    if (worker_bin.empty()) worker_bin = self_dir() + "/dgr_worker";
    if (::access(worker_bin.c_str(), X_OK) != 0) {
      std::fprintf(stderr,
                   "dgr_perfbench: dgr_worker not found or not executable "
                   "at '%s' (build it, or pass --worker-bin)\n",
                   worker_bin.c_str());
      return 3;
    }
  }
  // Sleep-until wakes within a few µs instead of the default 50 µs slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  Report rep;
  Pass p;
  std::uint64_t attempted = 0;
  if (trace == 0) {
    p = run_pass(*spec, seed, seconds, false, worker_bin);
    end_to_end(p, rep);
  } else {
    Pass ref = run_pass(*spec, seed, seconds / 2, false, worker_bin);
    p = run_pass(*spec, seed, seconds / 2, true, worker_bin);
    latencies(ref, rep);
    per_layer(p, ref, rep, spans_path);
    for (std::string& f : ref.failures) p.failures.push_back(std::move(f));
    p.sessions_rejected += ref.sessions_rejected;
    attempted += ref.ops.size() + ref.cycles.size();
  }
  attempted += p.ops.size() + p.cycles.size();

  for (const Metric& m : rep.metrics()) {
    std::string n;
    if (m.n) n = " n=" + std::to_string(m.n);
    if (m.below_rule) n += " (below the 10-beyond rule)";
    std::printf("# %-36s %16.6g %-9s%s\n", m.name.c_str(), m.value, m.unit,
                n.c_str());
  }
  for (const std::string& f : p.failures)
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  if (!rep.missing().empty()) {
    for (const std::string& m : rep.missing())
      std::fprintf(stderr, "dgr_perfbench: too few samples for %s\n",
                   m.c_str());
    return 4;
  }
  // A refused arrival is a failed op; so is every failed check.
  const std::uint64_t failed = p.failures.size() + p.sessions_rejected;
  std::fflush(stdout);
  print_json(rep, failed == 0, std::max<std::uint64_t>(1, attempted), failed);
  return 0;
}
