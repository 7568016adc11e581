// Tests for marking concurrent with graph mutation (Hudak §4.2, §5.3) —
// the paper's central novelty. Includes the §4.2 motivating race, scripted
// mutation storms, and a randomized concurrent-mutator property test checked
// against Theorem 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>
#include <unordered_set>

#include "graph/builder.h"
#include "graph/oracle.h"
#include "runtime/pool.h"
#include "runtime/sim_engine.h"

namespace dgr {
namespace {

// ---- The §4.2 motivating example. ----
//
// "Suppose we have a graph a → b → c, and the marking process has just
// spawned a mark task from a to b. Next a series of mutations occur,
// connecting a to c and disconnecting c from b ... at this point c is only
// accessible from a, but since marking has already propagated beyond a, c
// will never get marked."

struct RaceRig {
  Graph g{2};
  VertexId a, b, c;
  std::unique_ptr<SimEngine> eng;

  explicit RaceRig(bool check_invariants) {
    a = g.alloc(0, OpCode::kData);
    b = g.alloc(1, OpCode::kData);
    c = g.alloc(0, OpCode::kData);
    connect(g, a, b, ReqKind::kVital);
    connect(g, b, c, ReqKind::kVital);
    SimOptions opt;
    opt.seed = 99;
    opt.check_invariants = check_invariants;
    opt.invariant_period = 1;
    eng = std::make_unique<SimEngine>(g, opt);
    eng->set_root(a);
    CycleOptions copt;
    copt.detect_deadlock = false;
    eng->controller().start_cycle(copt);
    // Advance until the mark task has executed at a (a transient): marking
    // "has just spawned a mark task from a to b".
    while (!eng->marker().is_transient(Plane::kR, a)) {
      const bool stepped = eng->step();
      DGR_CHECK(stepped);
    }
  }
};

TEST(Sec42Race, CooperatingMutatorKeepsCReachableAndMarked) {
  RaceRig rig(/*check_invariants=*/true);
  // The mutations, through the cooperating primitives (Fig 4-2):
  rig.eng->mutator().add_reference(rig.a, rig.b, rig.c, ReqKind::kVital);
  rig.eng->mutator().delete_reference(rig.b, rig.c);
  rig.eng->run_until_cycle_done(100000);
  EXPECT_TRUE(rig.eng->marker().is_marked(Plane::kR, rig.c));
  EXPECT_FALSE(rig.g.is_free(rig.c));
  EXPECT_FALSE(rig.g.is_free(rig.b));  // still referenced by a
}

TEST(Sec42Race, UncooperativeMutatorLosesC) {
  // Negative control: the same mutations done with raw connect/disconnect
  // (no cooperation) reproduce the failure the paper warns about — c is
  // reachable yet unmarked, and gets (incorrectly) swept.
  RaceRig rig(/*check_invariants=*/false);
  connect(rig.g, rig.a, rig.c, ReqKind::kVital);
  disconnect(rig.g, rig.b, rig.c);
  rig.eng->run_until_cycle_done(100000);
  EXPECT_FALSE(rig.eng->marker().is_marked(Plane::kR, rig.c));
  EXPECT_TRUE(rig.g.is_free(rig.c));  // the bug cooperation exists to prevent
}

TEST(Sec42Race, AddReferenceAfterParentMarkedUsesTransientHelper) {
  // Variant: wait until a is fully MARKED, with b still transient (b's
  // subtree pinned by an unfinished chain). Then add-reference must splice
  // marking below b ("execute mark1(c,b)"), Fig 4-2's second case.
  Graph g(2);
  const VertexId a = g.alloc(0, OpCode::kData);
  const VertexId b = g.alloc(1, OpCode::kData);
  const VertexId c = g.alloc(0, OpCode::kData);
  const VertexId d = g.alloc(1, OpCode::kData);
  connect(g, a, b, ReqKind::kVital);
  connect(g, b, c, ReqKind::kVital);
  connect(g, b, d, ReqKind::kVital);

  // To hold b transient while a marks, we drive steps manually and check
  // states; with random scheduling across seeds, the interesting interleaving
  // (a marked before b) cannot occur — a marks only after b's subtree
  // completes. So instead exercise the transient-b path directly: advance
  // until b is transient, then mutate.
  SimOptions opt;
  opt.seed = 3;
  opt.check_invariants = true;
  opt.invariant_period = 1;
  SimEngine eng(g, opt);
  eng.set_root(a);
  CycleOptions copt;
  copt.detect_deadlock = false;
  eng.controller().start_cycle(copt);
  while (!eng.marker().is_transient(Plane::kR, b)) ASSERT_TRUE(eng.step());

  // New vertex e under a via b's child c: a is transient here; exercise the
  // generalized chain: add edge b -> fresh e... use expand under b.
  const VertexId e = g.alloc(0, OpCode::kData);
  connect(g, e, c, ReqKind::kVital);  // fresh→existing, wired before splice
  const VertexId fresh[] = {e};
  eng.mutator().expand_node(b, fresh);
  eng.mutator().add_reference_via(b, std::span<const VertexId>(&b, 1), e,
                                  ReqKind::kVital);
  eng.run_until_cycle_done(100000);
  EXPECT_TRUE(eng.marker().is_marked(Plane::kR, e));
  EXPECT_FALSE(g.is_free(e));
}

// ---- Boundary summary: a marked parent above an unmarked child. ----
//
// A FIFO engine with a boundary summary (TaskSink::admit_mark) that admits
// one mark per vertex, priority and wave, as ThreadEngine's does for remote
// children. A parent whose mark to x is vetoed completes at once, so it can
// be marked while x's admitted mark from another parent is still queued.
class SummaryEngine final : public TaskSink, public PoolSet {
 public:
  explicit SummaryEngine(Graph& g)
      : PoolSet(g.num_pes()),
        marker(g, *this),
        mutator(g, marker),
        controller(g, marker, *this, VertexId::invalid()) {}

  void spawn(Task t) override { queue.push_back(std::move(t)); }
  bool admit_mark(Plane plane, VertexId child, std::uint8_t prior,
                  std::uint64_t epoch) override {
    auto [it, fresh] =
        sent.try_emplace({child.pack(), epoch, plane == Plane::kR}, prior);
    if (!fresh && prior <= it->second) return false;
    it->second = prior;
    return true;
  }
  bool step() {
    if (queue.empty()) return false;
    const Task t = queue.front();
    queue.pop_front();
    marker.exec(t);
    return true;
  }

  std::deque<Task> queue;
  std::map<std::tuple<std::uint64_t, std::uint64_t, bool>, std::uint8_t> sent;
  Marker marker;
  Mutator mutator;
  Controller controller;
};

TEST(BoundarySummary, MarkedParentOverVetoedChildQueuesRescue) {
  // r → p → x and r → a → x, x → c. FIFO order marks p first, so a's mark to
  // x is vetoed and a is marked while mark(x) is still queued. Then a gains
  // c (via x) and x drops it: only a now reaches c, and a is done marking.
  Graph g(1, 16);
  const VertexId r = g.alloc(0, OpCode::kData);
  const VertexId p = g.alloc(0, OpCode::kData);
  const VertexId a = g.alloc(0, OpCode::kData);
  const VertexId x = g.alloc(0, OpCode::kData);
  const VertexId c = g.alloc(0, OpCode::kData);
  connect(g, r, p, ReqKind::kVital);
  connect(g, r, a, ReqKind::kVital);
  connect(g, p, x, ReqKind::kVital);
  connect(g, a, x, ReqKind::kVital);
  connect(g, x, c, ReqKind::kVital);

  SummaryEngine eng(g);
  eng.controller.set_root(r);
  CycleOptions copt;
  copt.detect_deadlock = false;
  eng.controller.start_cycle(copt);
  while (!eng.marker.is_marked(Plane::kR, a)) ASSERT_TRUE(eng.step());
  ASSERT_TRUE(eng.marker.is_unmarked(Plane::kR, x));

  eng.mutator.add_reference(a, x, c, ReqKind::kVital);
  eng.mutator.delete_reference(x, c);
  while (!eng.controller.idle()) ASSERT_TRUE(eng.step());

  EXPECT_GE(eng.marker.rescue_waves(Plane::kR), 1u);
  EXPECT_TRUE(eng.marker.is_marked(Plane::kR, c));
  EXPECT_FALSE(g.is_free(c));
  EXPECT_EQ(eng.controller.last().swept, 0u);
}

// ---- Randomized concurrent mutator vs Theorem 1 (E5). ----
//
// A seeded mutation driver interleaves cooperating mutations with marking
// steps. The driver respects reduction axioms 1 and 3 (it only touches
// vertices sampled by walks from the root, and fresh vertices from F), which
// is what Theorem 1 needs.

class ConcurrentMutationTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ConcurrentMutationTest, Theorem1HoldsUnderMutation) {
  const std::uint64_t seed = GetParam();
  Graph g(6);
  RandomGraphOptions gopt;
  gopt.num_vertices = 250;
  gopt.avg_out_degree = 2.0;
  gopt.p_detached = 0.25;
  gopt.seed = seed;
  const BuiltGraph b = build_random_graph(g, gopt);

  SimOptions sopt;
  sopt.seed = seed ^ 0xabcdef;
  sopt.check_invariants = true;
  sopt.invariant_period = 97;
  SimEngine eng(g, sopt);
  eng.set_root(b.root);

  // Snapshot GAR(t_b): garbage before marking starts.
  std::vector<VertexId> gar_tb;
  {
    Oracle o(g, b.root, {});
    for (VertexId v : b.vertices)
      if (!g.is_free(v) && o.in_GAR(v)) gar_tb.push_back(v);
  }

  CycleOptions copt;
  copt.detect_deadlock = false;
  eng.controller().start_cycle(copt);

  Rng rng(seed * 31 + 7);
  // Sample a vertex reachable from the root by a short random walk.
  auto sample_reachable = [&]() {
    VertexId v = b.root;
    const std::uint64_t hops = rng.below(12);
    for (std::uint64_t i = 0; i < hops; ++i) {
      const Vertex& vx = g.at(v);
      if (vx.args.empty()) break;
      const VertexId nxt = vx.args[rng.below(vx.args.size())].to;
      if (!nxt.valid() || g.is_free(nxt)) break;
      v = nxt;
    }
    return v;
  };
  auto rand_kind = [&]() {
    switch (rng.below(3)) {
      case 0: return ReqKind::kVital;
      case 1: return ReqKind::kEager;
      default: return ReqKind::kNone;
    }
  };

  std::vector<VertexId> fresh_allocated;
  int mutations = 0;
  while (!eng.controller().idle()) {
    // A few marking/reduction steps...
    for (std::uint64_t i = rng.below(4); i > 0 && !eng.controller().idle();
         --i)
      if (!eng.step()) break;
    if (eng.controller().idle()) break;
    // ... then one mutation.
    ++mutations;
    switch (rng.below(4)) {
      case 0: {  // delete-reference
        const VertexId a = sample_reachable();
        if (!g.at(a).args.empty()) {
          const ArgEdge e = g.at(a).args[rng.below(g.at(a).args.size())];
          eng.mutator().delete_reference(a, e.to);
        }
        break;
      }
      case 1: {  // add-reference(a,b,c)
        const VertexId a = sample_reachable();
        if (g.at(a).args.empty()) break;
        const VertexId bb = g.at(a).args[rng.below(g.at(a).args.size())].to;
        if (!bb.valid() || g.is_free(bb) || g.at(bb).args.empty()) break;
        const VertexId c = g.at(bb).args[rng.below(g.at(bb).args.size())].to;
        if (!c.valid() || g.is_free(c)) break;
        eng.mutator().add_reference(a, bb, c, rand_kind());
        break;
      }
      case 2: {  // expand-node with a small fresh chain
        const VertexId a = sample_reachable();
        const VertexId f1 = g.alloc_rr(OpCode::kData);
        const VertexId f2 = g.alloc_rr(OpCode::kData);
        connect(g, f1, f2, rand_kind());
        if (!g.at(a).args.empty()) {
          // fresh may reference a current child of a.
          const VertexId ch = g.at(a).args[rng.below(g.at(a).args.size())].to;
          if (ch.valid() && !g.is_free(ch)) connect(g, f2, ch, rand_kind());
        }
        const VertexId fresh[] = {f1, f2};
        eng.mutator().expand_node(a, fresh);
        eng.mutator().add_reference_via(a, std::span<const VertexId>(&a, 1),
                                        f1, rand_kind());
        fresh_allocated.push_back(f1);
        fresh_allocated.push_back(f2);
        break;
      }
      case 3: {  // priority upgrade on an existing eager edge (§5.3)
        const VertexId a = sample_reachable();
        for (const ArgEdge& e : g.at(a).args) {
          if (e.req == ReqKind::kEager) {
            eng.mutator().upgrade_to_vital(a, e.to);
            break;
          }
        }
        break;
      }
    }
  }
  ASSERT_GT(mutations, 0);

  // Theorem 1, left containment: everything garbage at t_b was swept.
  for (VertexId v : gar_tb) EXPECT_TRUE(g.is_free(v)) << v.pe << ":" << v.idx;

  // Theorem 1, right containment (safety): nothing reachable was swept —
  // equivalently, no live vertex has a dangling edge and the root survives.
  ASSERT_FALSE(g.is_free(b.root));
  g.for_each_live([&](VertexId v) {
    for (const ArgEdge& e : g.at(v).args) {
      ASSERT_TRUE(e.to.valid());
      EXPECT_FALSE(g.is_free(e.to)) << "dangling edge from live vertex";
    }
    for (VertexId r : g.at(v).requested) {
      if (r.valid()) {
        EXPECT_FALSE(g.is_free(r)) << "dangling requester";
      }
    }
  });

  // Marking liveness at t_c: everything reachable NOW is marked.
  Oracle after(g, b.root, {});
  g.for_each_live([&](VertexId v) {
    if (after.in_R(v)) {
      EXPECT_TRUE(eng.marker().is_marked(Plane::kR, v));
    }
  });

  // A second cycle on the now-quiescent graph must agree exactly with the
  // oracle (floating garbage from cycle 1 is collected in cycle 2).
  Oracle o2(g, b.root, {});
  const std::size_t expect_gar = o2.count_GAR();
  eng.controller().start_cycle(copt);
  eng.run_until_cycle_done(1000000);
  EXPECT_EQ(eng.controller().last().swept, expect_gar);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentMutationTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace dgr
