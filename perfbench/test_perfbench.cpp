// Tests of the benchmark's own arithmetic (perfbench/stats.h): the
// percentile reporting rule, ns timing, span self time and open-loop lag.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include "stats.h"

namespace perfbench {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(reportable(999, 99));
  EXPECT_TRUE(reportable(1000, 99));
  EXPECT_FALSE(reportable(99, 90));
  EXPECT_TRUE(reportable(100, 90));
  EXPECT_FALSE(reportable(19, 50));
  EXPECT_TRUE(reportable(20, 50));
  EXPECT_FALSE(reportable(0, 50));
}

TEST(Percentile, NearestRankValues) {
  Dist d;
  for (int i = 1000; i >= 1; --i) d.add(i);  // unsorted input
  EXPECT_EQ(d.pct(99), 990.0);
  EXPECT_EQ(d.pct(50), 500.0);
  EXPECT_EQ(d.pct(90), 900.0);
  EXPECT_EQ(d.n(), 1000u);
}

TEST(Percentile, NoP99FromFewerThanAThousand) {
  Dist d;
  for (int i = 0; i < 999; ++i) d.add(i);
  EXPECT_FALSE(d.pct(99).has_value());
  EXPECT_TRUE(d.pct(50).has_value());
  // The unruled value stays available for diagnostics.
  EXPECT_EQ(d.raw_pct(99), 989.0);
  EXPECT_EQ(Dist().raw_pct(50), 0.0);
}

TEST(Timing, SubMicrosecondWaitsKeepNanoseconds) {
  const Clock::time_point t0 = Clock::now();
  EXPECT_EQ(ns_between(t0, t0 + nanoseconds(300)), 300);
  EXPECT_EQ(ns_between(t0, t0 + nanoseconds(999)), 999);
  EXPECT_EQ(ns_between(t0, t0 + microseconds(2) + nanoseconds(5)), 2005);
  // What the program's own whole-µs stall sample reads for the same wait.
  EXPECT_EQ(std::chrono::duration_cast<microseconds>(nanoseconds(999)).count(),
            0);
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren) {
  std::vector<Span> s;
  s.push_back({0, -1, 0, 0, 100});   // 0: parent
  s.push_back({1, 0, 0, 10, 30});    // 1: child
  s.push_back({1, 0, 0, 20, 50});    // 2: overlaps child 1
  s.push_back({1, 0, 0, 90, 120});   // 3: runs past the parent (clipped)
  s.push_back({2, 1, 0, 12, 18});    // 4: grandchild, under child 1 only
  const std::vector<std::int64_t> self = self_times(s);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(Spans, DriverTimeIsTickMinusOps) {
  // A tick of two ops, each gate wait + mutator fn + a 20 ns release tail:
  // driver self time is what lies between the ops.
  std::vector<Span> s;
  s.push_back({0, -1, 7, 0, 1000});   // workload.tick
  s.push_back({1, 0, 7, 100, 400});   // workload.op
  s.push_back({2, 1, 7, 100, 250});   // gate wait
  s.push_back({3, 1, 7, 250, 380});   // mutator fn
  s.push_back({1, 0, 7, 600, 900});   // workload.op
  s.push_back({2, 4, 7, 600, 700});
  s.push_back({3, 4, 7, 700, 880});
  const std::vector<std::int64_t> self = self_times(s);
  EXPECT_EQ(self[0], 1000 - 300 - 300);
  EXPECT_EQ(self[1], 20);  // release tail of op 1
  EXPECT_EQ(self[4], 20);
}

TEST(OpenLoopClock, LagAndOpLatencyFromDueTime) {
  const Clock::time_point t0 = Clock::now();
  const OpenLoop loop(t0, milliseconds(2));
  EXPECT_EQ(loop.due(3), t0 + milliseconds(6));
  // On time or early: no lag.
  EXPECT_EQ(loop.lag_ns(3, t0 + milliseconds(6)), 0);
  EXPECT_EQ(loop.lag_ns(3, t0 + milliseconds(5)), 0);
  EXPECT_EQ(loop.lag_ns(3, t0 + microseconds(6500)), 500000);
  // An op is timed from its tick's due time, lag included.
  EXPECT_EQ(ns_between(loop.due(3), t0 + milliseconds(7)), 1000000);
}

TEST(OpenLoopClock, StallIsChargedToOpsQueuedBehindIt) {
  const Clock::time_point t0 = Clock::now();
  const OpenLoop loop(t0, milliseconds(2));
  // Tick 0's only op stalls until 5 ms; tick 1 (due at 2 ms) and tick 2
  // (due at 4 ms) can only start after it.
  const Clock::time_point stall_end = t0 + milliseconds(5);
  EXPECT_EQ(ns_between(loop.due(0), stall_end), 5000000);
  EXPECT_EQ(loop.lag_ns(1, stall_end), 3000000);
  EXPECT_EQ(loop.lag_ns(2, stall_end), 1000000);
  EXPECT_EQ(ns_between(loop.due(1), stall_end + microseconds(1)), 3001000);
  // Tick 3 (due at 6 ms) is back on schedule.
  EXPECT_EQ(loop.lag_ns(3, t0 + milliseconds(6)), 0);
}

}  // namespace
}  // namespace perfbench
