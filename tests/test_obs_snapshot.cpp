// Byte-for-byte snapshots of every telemetry output format against recorded
// files under tests/data/: any change to an emitted byte fails here, so a
// refactor of the schema tables (obs/schema.h), the JSON writer/reader
// (obs/json.h) or the exporters must leave every output as it was.
//
//   golden_*.report.{json,txt}    report_to_json / report_to_text
//   golden_*.enriched.report.*    the same after enrich_with_metrics_json
//   golden_*.chrome.json          to_chrome_trace / to_chrome_trace_cluster
//   golden_registry.json          MetricsRegistry::to_json (fill below)
//   golden_health.txt             health_line + health_jsonl (snapshot below)
//
// golden_all_events.jsonl is synthetic: one event of every type (plus
// out-of-range health/fault kinds and a truncated tail) so the Chrome
// exporter's every row is pinned, not only the ones a real run emits.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "obs/analyze.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace dgr::obs {
namespace {

std::string slurp(const std::string& name) {
  const std::string path = std::string(DGR_SOURCE_DIR) + "/tests/data/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing snapshot file: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<TraceEvent> trace(const char* name) {
  return from_jsonl(slurp(name));
}

TEST(ObsSnapshot, JsonlRoundTripIsIdentity) {
  for (const char* f : {"golden_gc_cycle.jsonl", "golden_deadlock.jsonl",
                        "golden_all_events.jsonl"}) {
    const std::string text = slurp(f);
    EXPECT_EQ(to_jsonl(from_jsonl(text)), text) << f;
  }
}

TEST(ObsSnapshot, GcCycleReports) {
  TraceReport r = analyze(trace("golden_gc_cycle.jsonl"));
  EXPECT_EQ(report_to_json(r), slurp("golden_gc_cycle.report.json"));
  EXPECT_EQ(report_to_text(r), slurp("golden_gc_cycle.report.txt"));
  ASSERT_TRUE(enrich_with_metrics_json(r, slurp("golden_gc_metrics.json")));
  EXPECT_EQ(report_to_json(r), slurp("golden_gc_cycle.enriched.report.json"));
  EXPECT_EQ(report_to_text(r), slurp("golden_gc_cycle.enriched.report.txt"));
}

TEST(ObsSnapshot, DeadlockReports) {
  const TraceReport r = analyze(trace("golden_deadlock.jsonl"));
  EXPECT_EQ(report_to_json(r), slurp("golden_deadlock.report.json"));
  EXPECT_EQ(report_to_text(r), slurp("golden_deadlock.report.txt"));
}

TEST(ObsSnapshot, AllEventsReports) {
  TraceReport r = analyze(trace("golden_all_events.jsonl"));
  EXPECT_EQ(report_to_json(r), slurp("golden_all_events.report.json"));
  EXPECT_EQ(report_to_text(r), slurp("golden_all_events.report.txt"));
  ASSERT_TRUE(
      enrich_with_metrics_json(r, slurp("golden_cluster_metrics.json")));
  EXPECT_EQ(report_to_json(r),
            slurp("golden_all_events.enriched.report.json"));
  EXPECT_EQ(report_to_text(r), slurp("golden_all_events.enriched.report.txt"));
}

TEST(ObsSnapshot, ChromeTraces) {
  EXPECT_EQ(to_chrome_trace(trace("golden_gc_cycle.jsonl"), 4),
            slurp("golden_gc_cycle.chrome.json"));
  EXPECT_EQ(to_chrome_trace(trace("golden_deadlock.jsonl"), 2),
            slurp("golden_deadlock.chrome.json"));
  const std::vector<TraceEvent> all = trace("golden_all_events.jsonl");
  EXPECT_EQ(to_chrome_trace(all, 3), slurp("golden_all_events.chrome.json"));
  EXPECT_EQ(to_chrome_trace_cluster(trace("golden_gc_cycle.jsonl"), {all, {}},
                                    4),
            slurp("golden_cluster.chrome.json"));
}

TEST(ObsSnapshot, RegistryJson) {
  MetricsRegistry reg(3);
  for (std::uint32_t pe = 0; pe < 3; ++pe) {
    for (std::size_t i = 0; i < kNumCounters; ++i)
      reg.add(pe, static_cast<Counter>(i), 1 + i * 3 + pe * 100);
    for (std::size_t h = 0; h < kNumHists; ++h)
      for (int k = 0; k <= static_cast<int>(h + pe); ++k)
        reg.observe(pe, static_cast<Hist>(h), 0.37 + k * k * 2.5 + pe);
  }
  EXPECT_EQ(reg.to_json(), slurp("golden_registry.json"));
}

TEST(ObsSnapshot, HealthLineAndJsonl) {
  HealthSnapshot s;
  s.cycle = 40;
  s.cycles_window = 3;
  s.window_ms = 12.5;
  s.marks = 81234;
  s.remote_msgs = 342;
  s.local_msgs = 658;
  s.retransmits = 3;
  s.stall_ops = 17;
  s.stall_p99_us = 12.375;
  s.telemetry_dropped = 2;
  s.workers_live = 3;
  s.workers_total = 4;
  EXPECT_EQ(health_line(s) + "\n" + health_jsonl(s) + "\n",
            slurp("golden_health.txt"));
}

}  // namespace
}  // namespace dgr::obs
