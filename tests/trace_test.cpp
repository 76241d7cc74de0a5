// Launch-pipeline tracer tests (support/trace.h).
//
// The exported trace must be valid Chrome-trace-format JSON (parsed back
// with support/json, the same parser Perfetto-bound tooling would exercise),
// wall-domain spans must nest properly, the per-launch phase breakdown must
// agree with both the raw trace events and the machine's busy-time counters,
// deterministic-timestamp traces must be byte-identical across runs, and —
// the no-observer-effect guarantee — tracing must not change results,
// modeled timing, RuntimeStats, or MachineStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "rt/runtime.h"
#include "support/json.h"
#include "support/trace.h"

namespace polypart::trace {
namespace {

/// Numeric JSON accessor (ts/dur serialize as doubles, ids as integers).
double num(const json::Value& v) {
  return v.isInt() ? static_cast<double>(v.asInt()) : v.asDouble();
}

struct TracedRun {
  rt::RuntimeStats stats;
  sim::MachineStats machine;
  double elapsed = 0;
  std::vector<double> temp;
};

/// Runs a small functional Hotspot workload (several launches, real peer
/// transfers) with the given tracer.
TracedRun runHotspot(Tracer* tracer, int gpus = 4, i64 n = 48, int iters = 3) {
  rt::RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::Functional;
  cfg.tracer = tracer;
  static ir::Module mod = apps::buildBenchmarkModule();
  static analysis::ApplicationModel model = analysis::analyzeModule(mod);
  rt::Runtime rt(cfg, model, mod);
  TracedRun r;
  r.temp.assign(static_cast<std::size_t>(n * n), 30.0);
  std::vector<double> power(static_cast<std::size_t>(n * n), 0.5);
  apps::runHotspot(rt, n, iters, r.temp.data(), power.data());
  r.stats = rt.stats();
  r.machine = rt.machineStats();
  r.elapsed = rt.elapsedSeconds();
  return r;
}

TEST(Trace, ExportIsValidChromeTraceJson) {
  Tracer tracer;
  runHotspot(&tracer);
  ASSERT_GT(tracer.eventCount(), 0u);

  json::Value root = json::Value::parse(tracer.exportChromeTrace());
  ASSERT_TRUE(root.isObject());
  const json::Value& events = root.at("traceEvents");
  ASSERT_TRUE(events.isArray());
  ASSERT_GT(events.asArray().size(), 0u);

  std::set<std::string> phases;
  for (const json::Value& e : events.asArray()) {
    ASSERT_TRUE(e.isObject());
    const std::string& ph = e.at("ph").asString();
    phases.insert(ph);
    ASSERT_TRUE(ph == "X" || ph == "i" || ph == "C" || ph == "M") << ph;
    EXPECT_TRUE(e.at("name").isString());
    i64 pid = e.at("pid").asInt();
    EXPECT_TRUE(pid == kWallPid || pid == kSimPid);
    if (ph == "M") continue;  // metadata carries no timestamp
    EXPECT_GE(num(e.at("ts")), 0.0);
    if (ph == "X") {
      EXPECT_GE(num(e.at("dur")), 0.0);
    }
    if (ph == "i") {
      EXPECT_EQ(e.at("s").asString(), "t");
    }
    if (ph == "C") {
      EXPECT_TRUE(e.at("args").isObject());
    }
  }
  // All four event classes must actually be exercised by a traced run.
  EXPECT_EQ(phases, (std::set<std::string>{"X", "i", "C", "M"}));
}

TEST(Trace, WallSpansNestProperly) {
  Tracer tracer;  // real timestamps: nesting is a wall-clock property
  runHotspot(&tracer);

  json::Value root = tracer.toJson();
  // Group wall-domain complete events per tid and check the classic
  // balanced-interval property: spans on one thread either nest or are
  // disjoint, never partially overlap.
  struct Iv {
    double b, e;
    std::string name;
  };
  std::map<i64, std::vector<Iv>> byTid;
  for (const json::Value& ev : root.at("traceEvents").asArray()) {
    if (ev.at("ph").asString() != "X") continue;
    if (ev.at("pid").asInt() != 1) continue;
    double ts = num(ev.at("ts")), dur = num(ev.at("dur"));
    byTid[ev.at("tid").asInt()].push_back(
        Iv{ts, ts + dur, ev.at("name").asString()});
  }
  ASSERT_FALSE(byTid.empty());
  i64 launchSpans = 0, childSpans = 0;
  for (auto& [tid, ivs] : byTid) {
    for (const Iv& a : ivs)
      for (const Iv& b : ivs) {
        if (&a == &b) continue;
        bool disjoint = a.e <= b.b || b.e <= a.b;
        bool nested = (a.b >= b.b && a.e <= b.e) || (b.b >= a.b && b.e <= a.e);
        EXPECT_TRUE(disjoint || nested)
            << a.name << " [" << a.b << "," << a.e << ") vs " << b.name
            << " [" << b.b << "," << b.e << ")";
      }
    // Every sync-reads / update-trackers span sits inside a launch span.
    for (const Iv& child : ivs) {
      if (child.name != "sync-reads" && child.name != "update-trackers")
        continue;
      ++childSpans;
      bool contained = false;
      for (const Iv& outer : ivs)
        if (outer.name.starts_with("launch:") && outer.b <= child.b &&
            child.e <= outer.e)
          contained = true;
      EXPECT_TRUE(contained) << child.name;
    }
    for (const Iv& iv : ivs)
      if (iv.name.starts_with("launch:")) ++launchSpans;
  }
  EXPECT_GT(launchSpans, 0);
  EXPECT_GT(childSpans, 0);
}

TEST(Trace, PhaseBreakdownMatchesTraceAndMachineStats) {
  Tracer tracer;
  TracedRun run = runHotspot(&tracer);

  std::vector<LaunchBreakdown> breakdown = tracer.phaseBreakdown();
  ASSERT_EQ(breakdown.size(), static_cast<std::size_t>(run.stats.launches));

  // (a) The breakdown must equal a direct aggregation of the exported JSON:
  // sim-domain complete events bucketed by category and launch id.
  std::map<i64, LaunchBreakdown> fromJson;
  json::Value root = tracer.toJson();
  for (const json::Value& ev : root.at("traceEvents").asArray()) {
    if (ev.at("ph").asString() != "X" || ev.at("pid").asInt() != 2) continue;
    const json::Value* args = ev.asObject().find("args");
    if (args == nullptr || !args->asObject().contains("launch")) continue;
    i64 launch = args->at("launch").asInt();
    double secs = num(ev.at("dur")) * 1e-6;
    const std::string& cat = ev.at("cat").asString();
    if (cat == "sim.kernel") fromJson[launch].executionSeconds += secs;
    if (cat == "sim.copy") fromJson[launch].transferSeconds += secs;
    if (cat == "sim.pattern") fromJson[launch].patternSeconds += secs;
  }
  ASSERT_EQ(fromJson.size(), breakdown.size());
  double executionTotal = 0, transferTotal = 0, patternTotal = 0;
  for (const LaunchBreakdown& lb : breakdown) {
    ASSERT_TRUE(fromJson.count(lb.launch)) << lb.launch;
    const LaunchBreakdown& j = fromJson[lb.launch];
    EXPECT_NEAR(lb.executionSeconds, j.executionSeconds, 1e-12);
    EXPECT_NEAR(lb.transferSeconds, j.transferSeconds, 1e-12);
    EXPECT_NEAR(lb.patternSeconds, j.patternSeconds, 1e-12);
    EXPECT_FALSE(lb.kernel.empty());
    // Shares sum to 1 for non-empty launches.
    if (lb.totalSeconds() > 0) {
      EXPECT_NEAR(
          lb.executionShare() + lb.transferShare() + lb.patternShare(), 1.0,
          1e-9);
    }
    executionTotal += lb.executionSeconds;
    transferTotal += lb.transferSeconds;
    patternTotal += lb.patternSeconds;
  }

  // (b) Execution time attributed to launches must equal the machine's
  // kernel busy time exactly (every kernel runs inside a launch scope), and
  // launch-attributed transfer time must be a positive part of the total
  // transfer busy time (the H2D scatter / D2H gather run outside launches).
  EXPECT_NEAR(executionTotal, run.machine.kernelBusySeconds,
              1e-12 * std::max(1.0, run.machine.kernelBusySeconds));
  EXPECT_GT(transferTotal, 0.0);
  EXPECT_LT(transferTotal, run.machine.transferBusySeconds);
  EXPECT_GT(patternTotal, 0.0);
}

TEST(Trace, SerialDeterministicTracesAreByteIdentical) {
  TracerOptions opts;
  opts.deterministicTimestamps = true;

  Tracer a(opts);
  runHotspot(&a);
  Tracer b(opts);
  runHotspot(&b);

  ASSERT_GT(a.eventCount(), 0u);
  EXPECT_EQ(a.exportChromeTrace(), b.exportChromeTrace());
}

TEST(Trace, CacheEventsAppearInTrace) {
  Tracer tracer;
  TracedRun run = runHotspot(&tracer, /*gpus=*/4, /*n=*/48, /*iters=*/4);
  json::Value root = tracer.toJson();
  i64 hits = 0, misses = 0, samples = 0;
  double lastSample = -1;
  for (const json::Value& ev : root.at("traceEvents").asArray()) {
    const std::string& name = ev.at("name").asString();
    if (ev.at("ph").asString() == "i" && name == "plan-hit") ++hits;
    if (ev.at("ph").asString() == "i" && name == "plan-miss") ++misses;
    if (ev.at("ph").asString() == "C" && name == "enumCacheHits") {
      ++samples;
      lastSample = num(ev.at("args").at("value"));
    }
  }
  // Iterative relaunches replay cached plans: both outcomes must be visible.
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  EXPECT_EQ(hits, run.stats.enumCacheHits);
  // The counter track gets at most one sample per launch and ends at the
  // runtime's total.
  EXPECT_GT(samples, 0);
  EXPECT_LE(samples, run.stats.launches);
  EXPECT_EQ(lastSample, static_cast<double>(run.stats.enumCacheHits));
}

TEST(Trace, PeerCopyEventsCarrySrcDstBytes) {
  Tracer tracer;
  TracedRun run = runHotspot(&tracer);
  ASSERT_GT(run.stats.peerCopies, 0);
  json::Value root = tracer.toJson();
  i64 peerEvents = 0;
  for (const json::Value& ev : root.at("traceEvents").asArray()) {
    if (ev.at("ph").asString() != "i" || ev.at("name").asString() != "peer-copy")
      continue;
    ++peerEvents;
    const json::Value& args = ev.at("args");
    EXPECT_GE(args.at("src").asInt(), 0);
    EXPECT_GE(args.at("dst").asInt(), 0);
    EXPECT_NE(args.at("src").asInt(), args.at("dst").asInt());
    EXPECT_GT(args.at("bytes").asInt(), 0);
    EXPECT_GE(args.at("launch").asInt(), 0);  // peer copies happen in launches
  }
  // One instant per transfer decision.
  EXPECT_EQ(peerEvents, run.stats.peerCopies);
}

TEST(Trace, EveryLaunchSamplesTheCountersItMoved) {
  Tracer tracer;
  TracedRun run = runHotspot(&tracer);
  json::Value root = tracer.toJson();
  i64 launchSamples = 0;
  double lastLaunches = -1, lastPeerCopies = -1, lastKernels = -1;
  for (const json::Value& ev : root.at("traceEvents").asArray()) {
    if (ev.at("ph").asString() != "C") continue;
    const std::string& name = ev.at("name").asString();
    const double v = num(ev.at("args").at("value"));
    EXPECT_GE(ev.at("args").at("launch").asInt(), 0) << name;
    EXPECT_NE(name, "resolutionWallSeconds");  // telemetry is never sampled
    if (name == "launches") {
      ++launchSamples;
      lastLaunches = v;
    }
    if (name == "peerCopies") lastPeerCopies = v;
    if (name == "kernelLaunches") lastKernels = v;
  }
  // Every launch moves `launches`; each track ends at its table's total.
  EXPECT_EQ(launchSamples, run.stats.launches);
  EXPECT_EQ(lastLaunches, static_cast<double>(run.stats.launches));
  EXPECT_EQ(lastPeerCopies, static_cast<double>(run.stats.peerCopies));
  EXPECT_EQ(lastKernels, static_cast<double>(run.machine.kernelLaunches));
}

// The tracing-off smoke test (see also scripts/check.sh): attaching a tracer
// must not perturb results, modeled timing, or any deterministic counter.
TEST(TraceSmoke, TracingOffAndOnProduceIdenticalStats) {
  TracedRun off = runHotspot(nullptr);
  Tracer tracer;
  TracedRun on = runHotspot(&tracer);

  EXPECT_EQ(on.temp, off.temp);
  EXPECT_EQ(on.elapsed, off.elapsed);
  EXPECT_EQ(on.machine, off.machine);
  EXPECT_EQ(on.stats.deterministic(), off.stats.deterministic());
}

TEST(Trace, LaunchIdsAreMonotoneAcrossRuntimes) {
  // One tracer shared by several runtimes keeps launch ids distinct.
  Tracer tracer;
  runHotspot(&tracer, 2, 32, 2);
  runHotspot(&tracer, 2, 32, 2);
  std::vector<LaunchBreakdown> breakdown = tracer.phaseBreakdown();
  std::set<i64> ids;
  for (const LaunchBreakdown& lb : breakdown) ids.insert(lb.launch);
  EXPECT_EQ(ids.size(), breakdown.size());
}

}  // namespace
}  // namespace polypart::trace
