// Unit tests for the priority task pool (§3.2 item 1: vital tasks compete
// with eager ones — the pool always serves the highest class) and fuzz tests
// for the wire codec.
#include <gtest/gtest.h>

#include "net/wire.h"
#include "runtime/pool.h"

namespace dgr {
namespace {

Task mk(std::uint8_t prior, std::uint32_t idx) {
  Task t = Task::request(VertexId::invalid(), VertexId{0, idx},
                         ReqKind::kVital);
  t.pool_prior = prior;
  return t;
}

TEST(TaskPool, ServesHighestPriorityFirst) {
  TaskPool p;
  p.push(mk(1, 10));
  p.push(mk(3, 11));
  p.push(mk(2, 12));
  EXPECT_EQ(p.pop().d.idx, 11u);  // vital first
  EXPECT_EQ(p.pop().d.idx, 12u);  // then eager
  EXPECT_EQ(p.pop().d.idx, 10u);  // then reserve
  EXPECT_TRUE(p.empty());
}

TEST(TaskPool, FifoWithinBucketWithoutRng) {
  TaskPool p;
  for (std::uint32_t i = 0; i < 5; ++i) p.push(mk(3, i));
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(p.pop().d.idx, i);
}

TEST(TaskPool, ExpungeByPredicate) {
  TaskPool p;
  for (std::uint32_t i = 0; i < 10; ++i) p.push(mk(1 + i % 3, i));
  const std::size_t killed =
      p.expunge([](const Task& t) { return t.d.idx % 2 == 0; });
  EXPECT_EQ(killed, 5u);
  EXPECT_EQ(p.size(), 5u);
  // Survivors keep their bucket and their order within it: vital 5, eager
  // 1 then 7, reserve 3 then 9.
  for (const std::uint32_t want : {5u, 1u, 7u, 3u, 9u})
    EXPECT_EQ(p.pop().d.idx, want);
  EXPECT_TRUE(p.empty());
}

TEST(TaskPool, ReprioritizeMovesBuckets) {
  TaskPool p;
  for (std::uint32_t i = 0; i < 6; ++i) p.push(mk(1, i));
  // Every second task becomes vital.
  const std::size_t moved = p.reprioritize(
      [](const Task& t) { return t.d.idx % 2 == 0 ? std::uint8_t{3}
                                                  : std::uint8_t{1}; });
  EXPECT_EQ(moved, 3u);
  // Vital ones come out first now, movers and stayers each in their old
  // order.
  for (const std::uint32_t want : {0u, 2u, 4u, 1u, 3u, 5u})
    EXPECT_EQ(p.pop().d.idx, want);
  EXPECT_TRUE(p.empty());
}

TEST(TaskPool, ReprioritizeAppendsMoversInBucketOrder) {
  TaskPool p;
  p.push(mk(3, 0));
  p.push(mk(1, 1));
  p.push(mk(2, 2));
  p.push(mk(1, 3));
  p.push(mk(2, 4));
  p.push(mk(3, 5));
  // Everything becomes vital except 5, which drops to reserve. Movers land
  // behind the tasks already in their new bucket: reserve's first, then
  // eager's.
  const std::size_t moved = p.reprioritize([](const Task& t) {
    return t.d.idx == 5 ? std::uint8_t{1} : std::uint8_t{3};
  });
  EXPECT_EQ(moved, 5u);
  for (const std::uint32_t want : {0u, 1u, 3u, 2u, 4u, 5u}) {
    const Task t = p.pop();
    EXPECT_EQ(t.d.idx, want);
    EXPECT_EQ(t.pool_prior, want == 5 ? 1 : 3);
  }
}

TEST(TaskPool, ReprioritizeStableWhenUnchanged) {
  TaskPool p;
  for (std::uint32_t i = 0; i < 4; ++i) p.push(mk(2, i));
  EXPECT_EQ(p.reprioritize([](const Task&) { return std::uint8_t{2}; }), 0u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(p.pop().d.idx, i);
}

TEST(TaskPool, RandomPopIsSeedDeterministic) {
  TaskPool p1, p2;
  for (std::uint32_t i = 0; i < 16; ++i) {
    p1.push(mk(3, i));
    p2.push(mk(3, i));
  }
  Rng r1(77), r2(77);
  while (!p1.empty()) EXPECT_EQ(p1.pop(&r1).d.idx, p2.pop(&r2).d.idx);
}

TEST(TaskPool, ForEachSeesEverything) {
  TaskPool p;
  for (std::uint32_t i = 0; i < 9; ++i) p.push(mk(1 + i % 3, i));
  std::size_t n = 0;
  std::uint64_t sum = 0;
  p.for_each([&](const Task& t) {
    ++n;
    sum += t.d.idx;
  });
  EXPECT_EQ(n, 9u);
  EXPECT_EQ(sum, 36u);
}

// ---- Wire codec fuzz: random tasks must round-trip bit-exactly. ----

TEST(WireFuzz, RandomTaskRoundTrips) {
  Rng rng(2026);
  for (int i = 0; i < 5000; ++i) {
    Task t;
    t.kind = static_cast<TaskKind>(rng.below(7));
    t.plane = rng.chance(0.5) ? Plane::kR : Plane::kT;
    t.d = VertexId{static_cast<PeId>(rng.below(64)),
                   static_cast<std::uint32_t>(rng.next())};
    t.s = rng.chance(0.2)
              ? VertexId::invalid()
              : VertexId{static_cast<PeId>(rng.below(64)),
                         static_cast<std::uint32_t>(rng.next())};
    t.prior = static_cast<std::uint8_t>(rng.below(4));
    t.demand = static_cast<ReqKind>(rng.below(3));
    t.pool_prior = static_cast<std::uint8_t>(1 + rng.below(3));
    switch (rng.below(4)) {
      case 0: t.value = Value::of_int(static_cast<std::int64_t>(rng.next())); break;
      case 1: t.value = Value::of_bool(rng.chance(0.5)); break;
      case 2: t.value = Value::of_node(VertexId{1, 2}); break;
      default: t.value = Value::nil(); break;
    }
    const Task u = decode_task(encode_task(t));
    EXPECT_EQ(u.kind, t.kind);
    EXPECT_EQ(u.plane, t.plane);
    EXPECT_EQ(u.d, t.d);
    EXPECT_EQ(u.s, t.s);
    EXPECT_EQ(u.prior, t.prior);
    EXPECT_EQ(u.demand, t.demand);
    EXPECT_EQ(u.pool_prior, t.pool_prior);
    EXPECT_TRUE(u.value == t.value);
  }
}

TEST(WireFuzz, TruncatedBufferIsRejected) {
  const Task t = Task::mark(Plane::kR, VertexId{1, 2}, VertexId{3, 4}, 3);
  auto bytes = encode_task(t);
  bytes.pop_back();
  EXPECT_DEATH(decode_task(bytes), "");
}

}  // namespace
}  // namespace dgr
