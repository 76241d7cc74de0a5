// The run loop: set-up measurement, correctness replica, timed and traced
// passes, and the metrics computed from them.

#include "perfbench/harness/workloads.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "codegen/enumerator.h"
#include "perfbench/harness/measure.h"
#include "perfbench/harness/selftime.h"
#include "perfbench/harness/session.h"
#include "support/error.h"
#include "support/trace.h"

namespace polypart::perfbench {

const Metric* RunResult::find(const std::string& name) const {
  for (const std::vector<Metric>* list : {&endToEnd, &perLayer})
    for (const Metric& m : *list)
      if (m.name == name) return &m;
  return nullptr;
}

namespace {

// -- layer attribution -----------------------------------------------------------

/// Enumeration cost per launch, replayed through the public
/// Enumerator::enumerate for each distinct launch of one pass: every
/// enumerator of every non-empty partition, as the paper-mode runtime runs
/// them when nothing is cached.
struct EnumerationReplay {
  double microsPerLaunch = 0;
  double rangesPerLaunch = 0;
  double logicalRowsPerLaunch = 0;
};

EnumerationReplay replayEnumeration(
    const std::map<std::string, LaunchSignature>& signatures) {
  constexpr int kReps = 15;
  double micros = 0, ranges = 0, rows = 0;
  long long launches = 0;
  // Runtimes only to ask partitionFor() for each launch's partitions.
  std::map<std::pair<const analysis::ApplicationModel*, int>,
           std::unique_ptr<rt::Runtime>>
      runtimes;
  for (const auto& [key, sig] : signatures) {
    std::unique_ptr<rt::Runtime>& runtime =
        runtimes[{sig.model, sig.config.numGpus}];
    if (!runtime)
      runtime = std::make_unique<rt::Runtime>(sig.config, *sig.model, *sig.module);
    const analysis::KernelModel& km = *sig.model->find(sig.kernel);
    std::vector<codegen::Enumerator> enumerators = codegen::buildEnumerators(km);
    for (codegen::Enumerator& e : enumerators) {
      e.coalesce = sig.config.coalesceEnumerators;
      e.tier = sig.config.enumeratorTier;
    }
    std::vector<codegen::PartitionTuple> tuples;
    for (int gpu = 0; gpu < sig.config.numGpus; ++gpu) {
      const ir::GridPartition gp = runtime->partitionFor(km, sig.launch.grid, gpu);
      if (gp.blockCount() > 0)
        tuples.push_back(codegen::PartitionTuple::fromBlocks(gp, sig.launch.block));
    }
    i64 sink = 0;
    const codegen::RangeFn emit = [&sink](i64 b, i64 e) { sink += e - b; };
    std::vector<double> samples;
    codegen::EnumInfo total;
    for (int rep = 0; rep < kReps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (const codegen::PartitionTuple& t : tuples)
        for (const codegen::Enumerator& e : enumerators) {
          codegen::EnumInfo info;
          e.enumerate(t, sig.launch, sig.scalars, emit, &info);
          if (rep == 0) {
            total.ranges += info.ranges;
            total.logicalRows += info.logicalRows;
          }
        }
      samples.push_back(secondsSince(t0) * 1e6);
    }
    PP_ASSERT(sink >= 0);
    const double n = static_cast<double>(sig.count);
    micros += median(samples) * n;
    ranges += static_cast<double>(total.ranges) * n;
    rows += static_cast<double>(total.logicalRows) * n;
    launches += sig.count;
  }
  EnumerationReplay r;
  if (launches > 0) {
    const double n = static_cast<double>(launches);
    r.microsPerLaunch = micros / n;
    r.rangesPerLaunch = ranges / n;
    r.logicalRowsPerLaunch = rows / n;
  }
  return r;
}

/// Wall-span layers of the traced run, in seconds per pass.
struct TracedPass {
  std::map<std::string, double> selfSeconds;  // by layerOf() name
  double hostSeconds = 0;
  double executionSeconds = 0;  // sim domain, from phaseBreakdown()
  double transferSeconds = 0;
  double patternSeconds = 0;
};

/// Span layers the per-layer metrics read; anything else is unattributed.
const char* const kLayerSpans[] = {
    "launch:*",         "sync-reads",    "update-trackers", "launch-kernels:*",
    "inspect:*",        "sync-may-reads", "schedule-transfers",
    "prefetch-flows",   "memcpy"};

TracedPass summarizeTrace(const trace::Tracer& tracer, double hostSeconds) {
  TracedPass t;
  t.hostSeconds = hostSeconds;
  const SelfTimes self = aggregateSelfTimes(wallSpans(tracer.toJson()));
  for (const auto& [layer, micros] : self.selfMicros)
    t.selfSeconds[layer] = micros * 1e-6;
  for (const trace::LaunchBreakdown& b : tracer.phaseBreakdown()) {
    t.executionSeconds += b.executionSeconds;
    t.transferSeconds += b.transferSeconds;
    t.patternSeconds += b.patternSeconds;
  }
  return t;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double geomean(const std::vector<std::pair<std::string, double>>& xs) {
  if (xs.empty()) return 0;
  double logSum = 0;
  for (const auto& [label, x] : xs) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(xs.size()));
}

/// Modeled outputs of a pass; must repeat exactly across the passes of a run.
bool sameModeledResult(const PassRecord& a, const PassRecord& b) {
  return a.simSeconds == b.simSeconds && a.machine == b.machine &&
         a.stats == b.stats;
}

}  // namespace

RunResult runBenchmark(const RunOptions& options) {
  std::unique_ptr<Workload> w = makeWorkload(options.workload);
  RunResult result;

  // Set-up first, each in a cold forked child: this process has analyzed
  // nothing yet, so the process-wide FM projection memo starts empty in
  // every child (warm, it cuts the irregular module's analysis ~10x).
  // Single cold set-ups vary by up to 1.6x on a shared host, so small ones
  // repeat until a second of set-up has been measured.
  std::vector<double> analyze, construct, setup;
  const Clock::time_point setupStart = Clock::now();
  while (static_cast<int>(setup.size()) < options.setupReps ||
         (secondsSince(setupStart) < options.setupSeconds &&
          setup.size() < 200)) {
    const auto [a, c] = measureInChild([&] { return w->setupOnce(); });
    analyze.push_back(a);
    construct.push_back(c);
    setup.push_back(a + c);
  }

  w->prepare(options.seed);
  result.inputDigest = w->inputDigest();

  Recorder rec;
  rec.corruptNextCheck = options.corruptOneOutput;
  std::vector<PassRecord> passes;
  std::vector<TracedPass> traced;
  try {
    w->replica(rec);

    const double budget = options.trace ? options.seconds / 2 : options.seconds;
    rec.timing = true;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(passes.size()) < w->minPasses() ||
           secondsSince(start) < budget) {
      rec.recordSignatures = passes.empty();
      PassRecord p;
      w->pass(rec, p);
      if (!passes.empty()) rec.check(sameModeledResult(passes.front(), p));
      passes.push_back(std::move(p));
    }
    rec.timing = false;
    rec.recordSignatures = false;

    if (options.trace) {
      const Clock::time_point tstart = Clock::now();
      while (traced.empty() || secondsSince(tstart) < budget) {
        trace::Tracer tracer;
        rec.tracer = &tracer;
        PassRecord p;
        w->pass(rec, p);
        rec.tracer = nullptr;
        traced.push_back(summarizeTrace(tracer, p.hostSeconds));
      }
    }
  } catch (const std::exception& e) {
    ++rec.failed;  // the operation that threw was counted as attempted
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
  }

  result.attempted = rec.attempted;
  result.failed = rec.failed;
  result.passes = static_cast<int>(passes.size());
  result.tracedPasses = static_cast<int>(traced.size());
  result.launchSamples = static_cast<long long>(rec.launchMicros.size());
  if (passes.empty()) return result;

  const PassRecord& first = passes.front();
  result.runSpeedups = first.speedups;
  result.counters = first.stats;
  result.machine = first.machine;

  // The tail a run of the minimum pass count can resolve, fixed per workload
  // so every run reports the same percentile.  It is taken in each block of
  // that many consecutive passes and the median over blocks reported: a
  // single burst of host interference otherwise sets the whole run's tail.
  const std::size_t block = rec.launchMicros.size() / passes.size() *
                            static_cast<std::size_t>(w->minPasses());
  result.tailPercentile = tailPercentile(static_cast<long long>(block));
  std::vector<double> blockTails;
  for (std::size_t b = 0; b + block <= rec.launchMicros.size(); b += block)
    blockTails.push_back(
        percentile({rec.launchMicros.begin() + static_cast<std::ptrdiff_t>(b),
                    rec.launchMicros.begin() + static_cast<std::ptrdiff_t>(b + block)},
                   result.tailPercentile));

  std::vector<double> hostSeconds;
  for (const PassRecord& p : passes) hostSeconds.push_back(p.hostSeconds);
  const rt::RuntimeStats& st = first.stats;
  const sim::MachineStats& ms = first.machine;

  result.endToEnd = {
      {"sim_s", first.simSeconds, "sim-s"},
      {"speedup", geomean(first.speedups), "x"},
      {"peer_bytes", ms.bytesPeerToPeer, "B"},
      {"h2d_bytes", ms.bytesHostToDevice, "B"},
      {"d2h_bytes", ms.bytesDeviceToHost, "B"},
      {"peer_copies", static_cast<double>(st.peerCopies + st.prefetchCopies),
       "count"},
      {"host_s", median(hostSeconds), "s"},
      {"launch_us_p50", median(rec.launchMicros), "us"},
      {"launch_us_tail", median(blockTails), "us"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peakRssMiB(), "MB"},
  };
  if (!options.trace) return result;

  const EnumerationReplay replay = replayEnumeration(rec.signatures);
  auto layerSeconds = [&](const char* layer) {
    std::vector<double> v;
    for (const TracedPass& t : traced) {
      auto it = t.selfSeconds.find(layer);
      v.push_back(it == t.selfSeconds.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  std::vector<double> tracedHost, unattributed;
  for (const TracedPass& t : traced) {
    tracedHost.push_back(t.hostSeconds);
    double attributed = 0;
    for (const char* layer : kLayerSpans) {
      auto it = t.selfSeconds.find(layer);
      if (it != t.selfSeconds.end()) attributed += it->second;
    }
    unattributed.push_back(1.0 - ratio(attributed, t.hostSeconds));
  }
  const TracedPass& t0 = traced.front();
  const double launches = static_cast<double>(st.launches);
  auto count = [](i64 v) { return static_cast<double>(v); };

  result.perLayer = {
      {"analysis.analyze_s", median(analyze), "s"},
      {"codegen.construct_s", median(construct), "s"},
      {"codegen.enumerate_us", replay.microsPerLaunch, "us"},
      {"codegen.ranges", replay.rangesPerLaunch, "count"},
      {"codegen.logical_rows", replay.logicalRowsPerLaunch, "count"},
      {"codegen.enum_cache_hit_ratio",
       ratio(count(st.enumCacheHits), count(st.enumCacheHits + st.enumCacheMisses)),
       "ratio"},
      {"rt.tracker.sync_reads_s", layerSeconds("sync-reads"), "s"},
      {"rt.tracker.update_s", layerSeconds("update-trackers"), "s"},
      {"rt.tracker.segments_visited", count(st.trackerSegmentsVisited), "count"},
      {"rt.tracker.shared_copy_hits", count(st.sharedCopyHits), "count"},
      {"rt.transfer_plan.schedule_s", layerSeconds("schedule-transfers"), "s"},
      {"rt.transfer_plan.merged", count(st.transfersMerged), "count"},
      {"rt.transfer_plan.broadcast_chains", count(st.broadcastChains), "count"},
      {"rt.transfer_plan.bytes_saved", count(st.bytesSavedByDedup), "B"},
      {"rt.dataflow_plan.prefetch_s", layerSeconds("prefetch-flows"), "s"},
      {"rt.dataflow_plan.planned_frac", ratio(count(st.plannedLaunches), launches),
       "ratio"},
      {"rt.dataflow_plan.prefetch_copies", count(st.prefetchCopies), "count"},
      {"rt.dataflow_plan.bytes_prefetched", count(st.bytesPrefetched), "B"},
      {"rt.dataflow_plan.bytes_elided", count(st.bytesElided), "B"},
      {"rt.dataflow_plan.prefetch_hits", count(st.prefetchHits), "count"},
      {"rt.dataflow_plan.divergences", count(st.planDivergences), "count"},
      {"rt.inspector.inspect_s", layerSeconds("inspect:*"), "s"},
      {"rt.inspector.sync_may_reads_s", layerSeconds("sync-may-reads"), "s"},
      {"rt.inspector.runs", count(st.inspectorRuns), "count"},
      {"rt.inspector.cache_hit_ratio",
       ratio(count(st.inspectorCacheHits),
             count(st.inspectorCacheHits + st.inspectorCacheMisses)),
       "ratio"},
      {"rt.inspector.inspected_elements", count(st.inspectedElements), "count"},
      {"ir.launch_kernels_s", layerSeconds("launch-kernels:*"), "s"},
      {"rt.runtime.launch_self_s", layerSeconds("launch:*"), "s"},
      {"rt.runtime.memcpy_s", layerSeconds("memcpy"), "s"},
      {"sim.execution_s", t0.executionSeconds, "sim-s"},
      {"sim.transfer_s", t0.transferSeconds, "sim-s"},
      {"sim.pattern_s", t0.patternSeconds, "sim-s"},
      {"sim.transfer_busy_s", ms.transferBusySeconds, "sim-s"},
      {"sim.kernel_busy_s", ms.kernelBusySeconds, "sim-s"},
      {"sim.peer_fanout_max", static_cast<double>(first.peerFanoutMax), "count"},
      {"trace.overhead_frac", ratio(median(tracedHost), median(hostSeconds)) - 1,
       "ratio"},
      {"trace.unattributed_frac", median(unattributed), "ratio"},
  };
  return result;
}

}  // namespace polypart::perfbench
