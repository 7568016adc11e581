// E1/E6 — Deadlock detection (paper Fig 3-1, Property 2', Theorem 2).
//
// Table: graphs with planted self-dependent (deadlocked) regions embedded in
// live computation, swept over sizes and PE counts. Reports detection
// exactness (found == planted, no false positives — Theorem 2) and the cost
// of the extra M_T pass that deadlock detection requires (§6 explains why
// M_T is run only occasionally).
#include "bench/bench_common.h"

namespace dgr::bench {
namespace {

struct Planted {
  VertexId root;
  std::vector<VertexId> deadlocked;
  std::vector<TaskRef> tasks;
};

// Root vitally fans out to `n_dead` self-dependent vertices (each the
// Fig 3-1 "x = x+1" knot) and to a live region of `n_live` vertices kept
// task-reachable by pooled tasks.
Planted plant(Graph& g, std::uint32_t n_dead, std::uint32_t n_live,
              std::uint64_t seed) {
  Rng rng(seed);
  Planted p;
  p.root = g.alloc_rr(OpCode::kData);
  g.at(p.root).requested.push_back(VertexId::invalid());
  for (std::uint32_t i = 0; i < n_dead; ++i) {
    const VertexId x = g.alloc_rr(OpCode::kAdd);
    connect(g, p.root, x, ReqKind::kVital);
    connect(g, x, x, ReqKind::kVital);
    p.deadlocked.push_back(x);
  }
  // The live region hangs off the root through *unrequested* edges: it is
  // reserve-priority data the computation has not demanded yet, and it is
  // task-reachable (args − req-args are ↦-edges), so it is neither vital
  // nor deadlocked.
  std::vector<VertexId> live;
  for (std::uint32_t i = 0; i < n_live; ++i) {
    const VertexId v = g.alloc_rr(OpCode::kData);
    const VertexId from = live.empty() ? p.root : live[rng.below(live.size())];
    connect(g, from, v, ReqKind::kNone);
    live.push_back(v);
  }
  // Tasks at a subset of live leaves keep the live region in T.
  for (std::uint32_t i = 0; i < std::max(1u, n_live / 16); ++i) {
    const VertexId d = live[rng.below(live.size())];
    p.tasks.push_back(TaskRef{p.root, d});
  }
  return p;
}

void table() {
  print_header("E1/E6: deadlock detection (DL_v = R_v − T)",
               "Fig 3-1, Property 2', Theorem 2",
               "every planted self-dependency found, nothing live accused; "
               "M_T adds one task-rooted pass of cost O(T-edges)");
  std::printf("%6s %8s %8s %8s %10s %10s %12s %12s\n", "PEs", "live",
              "planted", "found", "false_pos", "mt_marks", "mr_marks",
              "exact");
  for (std::uint32_t pes : {2u, 8u}) {
    for (std::uint32_t n_live : {100u, 1000u, 10000u}) {
      for (std::uint32_t n_dead : {1u, 10u, 100u}) {
        Graph g(pes);
        const Planted p = plant(g, n_dead, n_live, 33);
        SimOptions sopt;
        sopt.seed = 13;
        SimEngine eng(g, sopt);
        eng.set_root(p.root);
        for (const TaskRef& t : p.tasks)
          eng.spawn(Task::request(t.s, t.d, ReqKind::kVital));
        eng.controller().start_cycle(CycleOptions{true});
        eng.run_until_cycle_done();
        const CycleResult& res = eng.controller().last();
        std::vector<VertexId> found = res.deadlocked;
        std::sort(found.begin(), found.end());
        std::vector<VertexId> want = p.deadlocked;
        std::sort(want.begin(), want.end());
        std::size_t false_pos = 0;
        for (VertexId v : found)
          if (!std::binary_search(want.begin(), want.end(), v)) ++false_pos;
        std::printf("%6u %8u %8u %8zu %10zu %10llu %12llu %12s\n", pes,
                    n_live, n_dead, found.size(), false_pos,
                    (unsigned long long)res.stats_t.marks,
                    (unsigned long long)res.stats_r.marks,
                    found == want ? "yes" : "NO");
      }
    }
  }
}

void BM_DetectionCycle(benchmark::State& state) {
  const auto n_live = static_cast<std::uint32_t>(state.range(0));
  Graph g(8);
  const Planted p = plant(g, 16, n_live, 3);
  SimOptions sopt;
  sopt.seed = 4;
  SimEngine eng(g, sopt);
  eng.set_root(p.root);
  for (const TaskRef& t : p.tasks)
    eng.spawn(Task::request(t.s, t.d, ReqKind::kVital));
  for (auto _ : state) {
    eng.controller().start_cycle(CycleOptions{true});
    eng.run_until_cycle_done();
  }
  state.SetItemsProcessed(state.iterations() * n_live);
}
BENCHMARK(BM_DetectionCycle)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// The §6 trade-off: a GC-only cycle (no M_T) vs a full deadlock-detecting
// cycle on the same graph.
void BM_CycleWithoutMt(benchmark::State& state) {
  Graph g(8);
  const Planted p = plant(g, 16, 10000, 3);
  SimOptions sopt;
  sopt.seed = 4;
  SimEngine eng(g, sopt);
  eng.set_root(p.root);
  for (auto _ : state) {
    eng.controller().start_cycle(CycleOptions{false});
    eng.run_until_cycle_done();
  }
}
BENCHMARK(BM_CycleWithoutMt)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dgr::bench

int main(int argc, char** argv) {
  dgr::bench::table();
  return dgr::bench::run_bench_main("deadlock", argc, argv);
}
