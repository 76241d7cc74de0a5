// Self-tests of the PolyPart benchmark: the self-time aggregator, the paper
// anchor, output checking, and determinism under seeds.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "perfbench/harness/measure.h"
#include "perfbench/harness/selftime.h"
#include "perfbench/harness/workloads.h"

namespace polypart::perfbench {
namespace {

json::Value span(const char* name, int tid, double ts, double dur) {
  json::Value e = json::Value::object();
  e["name"] = name;
  e["ph"] = "X";
  e["ts"] = ts;
  e["dur"] = dur;
  e["pid"] = 1;
  e["tid"] = tid;
  return e;
}

TEST(SelfTime, NestedSpansSubtractTheirChildren) {
  json::Value events = json::Value::array();
  // Thread 1: launch:a [0,100) > sync-reads [10,30), launch-kernels:a
  // [40,90) > memcpy [50,60); then a sibling root launch:b [120,130).
  events.push(span("launch:a", 1, 0, 100));
  events.push(span("sync-reads", 1, 10, 20));
  events.push(span("launch-kernels:a", 1, 40, 50));
  events.push(span("memcpy", 1, 50, 10));
  events.push(span("launch:b", 1, 120, 10));
  // Thread 2 overlaps thread 1 in time but nests only within its own track.
  events.push(span("update-trackers", 2, 5, 40));
  // Sim-domain and instant events are ignored.
  json::Value sim = span("hotspot", 1, 0, 1000);
  sim["pid"] = 2;
  events.push(std::move(sim));
  json::Value instant = json::Value::object();
  instant["name"] = "peer-copy";
  instant["ph"] = "i";
  instant["ts"] = 12.0;
  instant["pid"] = 1;
  instant["tid"] = 1;
  events.push(std::move(instant));
  json::Value trace = json::Value::object();
  trace["traceEvents"] = std::move(events);

  const std::vector<WallSpan> spans = wallSpans(trace);
  ASSERT_EQ(spans.size(), 6u);
  const SelfTimes t = aggregateSelfTimes(spans);
  EXPECT_DOUBLE_EQ(t.selfMicros.at("launch:*"), (100 - 20 - 50) + 10.0);
  EXPECT_DOUBLE_EQ(t.selfMicros.at("sync-reads"), 20);
  EXPECT_DOUBLE_EQ(t.selfMicros.at("launch-kernels:*"), 40);
  EXPECT_DOUBLE_EQ(t.selfMicros.at("memcpy"), 10);
  EXPECT_DOUBLE_EQ(t.selfMicros.at("update-trackers"), 40);
  EXPECT_DOUBLE_EQ(t.rootMicros, 100 + 10 + 40);
  double total = 0;
  for (const auto& [layer, micros] : t.selfMicros) total += micros;
  EXPECT_DOUBLE_EQ(total, t.rootMicros);  // self times partition the roots
}

TEST(SelfTime, ChildOverrunIsClippedToItsParent) {
  // Clock jitter can end a child a hair after its parent; the overrun must
  // not make the parent's self time negative.
  const SelfTimes t = aggregateSelfTimes(
      {{"launch:k", 1, 0, 10}, {"sync-reads", 1, 2, 8.5}});
  EXPECT_DOUBLE_EQ(t.selfMicros.at("launch:*"), 2);
  EXPECT_EQ(layerOf("inspect:spmv"), "inspect:*");
  EXPECT_EQ(layerOf("sync-may-reads"), "sync-may-reads");
}

TEST(Measure, TailPercentileLeavesTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tailPercentile(6772), 99.8);
  EXPECT_DOUBLE_EQ(tailPercentile(16000), 99.9);
  EXPECT_DOUBLE_EQ(tailPercentile(80), 87.5);
  EXPECT_DOUBLE_EQ(tailPercentile(5), 50);
  for (long long n : {24LL, 80LL, 1000LL, 16000LL})
    EXPECT_GE(static_cast<double>(n) * (1 - tailPercentile(n) / 100), 10 - 1e-9);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
}

RunOptions quick(const std::string& workload, u64 seed = 1) {
  RunOptions o;
  o.workload = workload;
  o.seed = seed;
  o.seconds = 0;  // the workload's minimum pass count
  o.setupReps = 1;
  o.setupSeconds = 0;
  return o;
}

/// Medium rows of bench_results/fig6.txt: benchmark -> GPUs -> speedup text.
std::map<std::string, std::map<int, std::string>> fig6Medium() {
  std::ifstream in(PERFBENCH_FIG6_PATH);
  EXPECT_TRUE(in.good()) << "cannot read " << PERFBENCH_FIG6_PATH;
  std::map<std::string, std::map<int, std::string>> out;
  std::string line, bench;
  std::vector<int> gpus;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string first;
    ss >> first;
    if (first == "Hotspot" || first == "N-Body" || first == "Matmul") {
      bench = first;
    } else if (first == "Size") {
      gpus.clear();
      std::string tok;
      ss >> tok;  // "n"
      while (ss >> tok) gpus.push_back(std::stoi(tok));
    } else if (first == "Medium" && !bench.empty()) {
      std::string n, value;
      ss >> n;
      for (int g : gpus) {
        ss >> value;
        out[bench][g] = value;
      }
    }
  }
  return out;
}

TEST(PaperAnchor, PaperTimingReproducesFig6MediumRows) {
  const auto fig6 = fig6Medium();
  const RunResult r = runBenchmark(quick("paper_timing"));
  EXPECT_EQ(r.failed, 0);
  ASSERT_EQ(r.runSpeedups.size(), 12u);
  for (const auto& [label, speedup] : r.runSpeedups) {
    const std::string bench = label.substr(0, label.find(' '));
    const int gpus = std::stoi(label.substr(label.find(' ') + 1));
    char printed[32];
    std::snprintf(printed, sizeof printed, "%.2f", speedup);
    EXPECT_EQ(printed, fig6.at(bench).at(gpus)) << label;
  }
}

TEST(Correctness, CorruptedOutputIsCountedAsFailed) {
  RunResult clean = runBenchmark(quick("bfs_inspector"));
  EXPECT_EQ(clean.failed, 0);
  EXPECT_GT(clean.attempted, 0);

  RunOptions o = quick("bfs_inspector");
  o.corruptOneOutput = true;
  const RunResult r = runBenchmark(o);
  EXPECT_GT(static_cast<double>(r.failed) / static_cast<double>(r.attempted), 0.0);
}

void expectSameModeled(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.machine, b.machine);
  for (const char* m : {"sim_s", "speedup", "peer_bytes", "h2d_bytes", "d2h_bytes",
                        "peer_copies"})
    EXPECT_EQ(a.find(m)->value, b.find(m)->value) << m;
}

TEST(Determinism, SameSeedRepeatsAndNewSeedMovesOnlyIrregularInputs) {
  for (const char* w : {"spmv_inspector", "bfs_inspector"}) {
    const RunResult a = runBenchmark(quick(w, 11));
    const RunResult b = runBenchmark(quick(w, 11));
    const RunResult c = runBenchmark(quick(w, 12));
    EXPECT_EQ(a.failed + b.failed + c.failed, 0) << w;
    EXPECT_EQ(a.inputDigest, b.inputDigest) << w;
    expectSameModeled(a, b);
    EXPECT_NE(a.inputDigest, c.inputDigest) << w;
  }
  const RunResult p = runBenchmark(quick("paper_timing", 11));
  const RunResult q = runBenchmark(quick("paper_timing", 12));
  EXPECT_EQ(p.failed + q.failed, 0);
  expectSameModeled(p, q);  // TimingOnly: the seed feeds only the replica
}

TEST(IterativePlanned, ExtendedCyclePlansAndBroadcasts) {
  RunOptions o = quick("iterative_planned");
  o.trace = true;
  const RunResult r = runBenchmark(o);
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(r.find("rt.dataflow_plan.divergences")->value, 0);
  EXPECT_GT(r.find("rt.dataflow_plan.planned_frac")->value, 0.95);
  EXPECT_EQ(r.find("codegen.enum_cache_hit_ratio")->value > 0.99, true);
  // The norm kernel's read of every residual partial: one producer's bytes
  // reach every other device, beyond the two halo neighbours.
  EXPECT_EQ(r.find("sim.peer_fanout_max")->value, 15);
  for (const Metric& m : r.perLayer)
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
}

}  // namespace
}  // namespace polypart::perfbench
