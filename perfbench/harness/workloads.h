#pragma once

// The PolyPart benchmark: four workloads, each a single-client closed loop
// (one process, one thread, each runtime call issued after the previous one
// returned, serial resolution engine), and the run loop that measures them.
//
// A run measures the workload's set-up in cold child processes, checks the
// program's outputs (a Functional replica for the TimingOnly workloads,
// every output of every pass for the Functional ones), then repeats whole
// passes of the workload's launch sequence for the requested wall time.
// With `trace` set it instead splits that time between untraced passes and
// passes with a trace::Tracer attached, and reports per-layer metrics
// attributed from the traced passes' wall spans.  README.md lists every
// metric with its unit and the layer-to-end-to-end map.

#include <string>
#include <utility>
#include <vector>

#include "rt/runtime.h"

namespace polypart::perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  u64 seed = 1;
  /// Wall seconds of timed passes (a run always completes the workload's
  /// minimum pass count, however small this is).
  double seconds = 10;
  /// Per-layer run: half the time untraced, half traced.
  bool trace = false;
  /// Cold set-up measurements (forked children) behind setup_s: at least
  /// `setupReps`, and more while under `setupSeconds` of measuring.
  int setupReps = 9;
  double setupSeconds = 1.0;
  /// Self-test hook: flips one bit of the first checked output.
  bool corruptOneOutput = false;
};

struct RunResult {
  /// Every end-to-end metric, whatever `trace` was.
  std::vector<Metric> endToEnd;
  /// Every per-layer metric; empty unless the run was traced.
  std::vector<Metric> perLayer;
  /// Launches, memcpys, and output checks attempted / failed (threw or did
  /// not match its reference).  fail_frac = failed / attempted.
  long long attempted = 0;
  long long failed = 0;
  int passes = 0;
  int tracedPasses = 0;
  long long launchSamples = 0;
  /// Percentile reported as launch_us_tail.
  double tailPercentile = 0;
  /// FNV-1a digest of the generated inputs.
  u64 inputDigest = 0;
  /// Per-run speedups of the first pass ("Hotspot 16G" -> reference time
  /// over partitioned time).
  std::vector<std::pair<std::string, double>> runSpeedups;
  /// First pass's counters summed over its runs (wall-clock meta-counters
  /// zeroed): the deterministic part of the run.
  rt::RuntimeStats counters;
  sim::MachineStats machine;

  const Metric* find(const std::string& name) const;
};

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// Runs one workload; throws Error for an unknown workload name.
RunResult runBenchmark(const RunOptions& options);

}  // namespace polypart::perfbench
