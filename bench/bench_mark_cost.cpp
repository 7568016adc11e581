// E14 — Algorithm micro-costs (paper Figs 4-1/5-1/5-3): the decentralized
// marker spends exactly one mark task per edge plus one per root, and one
// return per mark task, independent of topology — O(E) work with no
// centralized structure. Table: measured task counts vs |V|, |E| across
// graph families; the marks/edge ratio should sit at ~1.
#include "bench/bench_common.h"
#include "runtime/thread_engine.h"

namespace dgr::bench {
namespace {

struct Fam {
  const char* name;
  std::function<VertexId(Graph&)> build;
};

std::size_t count_edges(const Graph& g) {
  std::size_t e = 0;
  g.for_each_live([&](VertexId v) { e += g.at(v).args.size(); });
  return e;
}

void print_row(const char* name, std::size_t V, std::size_t E,
               const MarkStats& st) {
  std::printf("%10s %10zu %10zu %10llu %10llu %10llu %12.3f\n", name, V, E,
              (unsigned long long)st.marks,
              (unsigned long long)st.returns,
              (unsigned long long)st.remarks,
              static_cast<double>(st.marks) /
                  static_cast<double>(E ? E : 1));
}

void run_family(const char* name, Graph& g, VertexId root) {
  const std::size_t V = g.total_live();
  const std::size_t E = count_edges(g);
  SimOptions sopt;
  sopt.seed = 9;
  SimEngine eng(g, sopt);
  eng.set_root(root);
  CycleOptions copt;
  copt.detect_deadlock = false;
  eng.controller().start_cycle(copt);
  eng.run_until_cycle_done();
  print_row(name, V, E, eng.controller().last().stats_r);
}

// The same cycle on a 1-PE ThreadEngine, whose run queue pops in mark_order
// (strongest marks first) where the simulator picks tasks at random. One PE
// keeps the order, and so the counts, deterministic.
void run_family_threaded(const char* name, Graph& g, VertexId root) {
  const std::size_t V = g.total_live();
  const std::size_t E = count_edges(g);
  ThreadEngine eng(g);
  eng.set_root(root);
  eng.start();
  CycleOptions copt;
  copt.detect_deadlock = false;
  eng.controller().start_cycle(copt);
  eng.wait_cycle_done();
  eng.stop();
  print_row(name, V, E, eng.controller().last().stats_r);
}

void table() {
  print_header("E14: marking task counts per topology",
               "Figs 4-1/5-1/5-3 cost structure",
               "one mark task per edge (+1 for the root) on uniform-priority "
               "graphs; mixed-priority graphs additionally pay mark2's "
               "re-marking (§5.1), visible as marks/edge > 1 with remarks > 0");
  std::printf("%10s %10s %10s %10s %10s %10s %12s\n", "family", "V", "E",
              "marks", "returns", "remarks", "marks/edge");
  {
    Graph g(8);
    const auto chain = build_chain(g, 4096, ReqKind::kVital);
    run_family("chain", g, chain.front());
  }
  {
    Graph g(8);
    const VertexId root = build_tree(g, 12, ReqKind::kVital);
    run_family("tree", g, root);
  }
  {
    Graph g(8);
    RandomGraphOptions opt;
    opt.num_vertices = 4096;
    opt.avg_out_degree = 4.0;
    opt.p_detached = 0.0;
    opt.seed = 4;
    const BuiltGraph b = build_random_graph(g, opt);
    run_family("random", g, b.root);
    Graph g1(1);  // the same topology on one PE
    const BuiltGraph b1 = build_random_graph(g1, opt);
    run_family_threaded("random/thr", g1, b1.root);
  }
  {
    // Dense cyclic ring-of-cliques: shared vertices reached many times;
    // every duplicate reach is one extra mark task that returns immediately.
    Graph g(8);
    std::vector<VertexId> ring;
    for (int i = 0; i < 512; ++i) ring.push_back(g.alloc_rr(OpCode::kData));
    for (std::size_t i = 0; i < ring.size(); ++i)
      for (std::size_t d = 1; d <= 8; ++d)
        connect(g, ring[i], ring[(i + d) % ring.size()], ReqKind::kVital);
    run_family("cyclic", g, ring[0]);
  }
}

void BM_CycleByFamily(benchmark::State& state) {
  const auto depth = static_cast<std::uint32_t>(state.range(0));
  Graph g(8);
  const VertexId root = build_tree(g, depth, ReqKind::kVital);
  SimOptions sopt;
  sopt.seed = 2;
  SimEngine eng(g, sopt);
  eng.set_root(root);
  CycleOptions copt;
  copt.detect_deadlock = false;
  for (auto _ : state) {
    eng.controller().start_cycle(copt);
    eng.run_until_cycle_done();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.total_live()));
  report_phase_counters(state, eng);
}
BENCHMARK(BM_CycleByFamily)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dgr::bench

int main(int argc, char** argv) {
  dgr::bench::table();
  return dgr::bench::run_bench_main("mark_cost", argc, argv);
}
