// The PolyPart benchmark command:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a run record (build type, core count, compiler, seed, sample
// counts) and, as its last line, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  See README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness/measure.h"
#include "perfbench/harness/workloads.h"
#include "support/json.h"

namespace {

using namespace polypart;
using namespace polypart::perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:",
               why);
  for (const std::string& w : workloadNames()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double parseNumber(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') usage((std::string("bad value for ") + flag).c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage((std::string("missing value for ") + flag).c_str());
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      opts.workload = value;
      haveWorkload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      const double seed = parseNumber(flag, value);
      if (seed < 0) usage("--seed must be non-negative");
      opts.seed = static_cast<u64>(seed);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opts.seconds = parseNumber(flag, value);
      if (opts.seconds < 0) usage("--seconds must be non-negative");
    } else if (std::strcmp(flag, "--trace") == 0) {
      const double t = parseNumber(flag, value);
      if (t != 0 && t != 1) usage("--trace must be 0 or 1");
      opts.trace = t == 1;
    } else {
      usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  bool known = false;
  for (const std::string& w : workloadNames()) known |= w == opts.workload;
  if (!known) usage(("unknown workload '" + opts.workload + "'").c_str());

  const RunResult r = runBenchmark(opts);

  const BuildInfo b = buildInfo();
  json::Value record = json::Value::object();
  record["workload"] = opts.workload;
  record["seed"] = static_cast<std::int64_t>(opts.seed);
  record["build_type"] = b.buildType;
  record["optimized"] = b.optimized;
  record["hardware_concurrency"] = static_cast<std::int64_t>(b.hardwareConcurrency);
  record["compiler"] = b.compiler;
  record["passes"] = r.passes;
  record["traced_passes"] = r.tracedPasses;
  record["launch_samples"] = static_cast<std::int64_t>(r.launchSamples);
  record["launch_us_tail_percentile"] = r.tailPercentile;
  record["fail_frac"] =
      r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                      : 1.0;
  std::printf("record %s\n", record.dump().c_str());
  if (!b.optimized)
    std::printf("WARNING: unoptimized build; host-time metrics are not meaningful\n");

  json::Value metrics = json::Value::object();
  for (const Metric& m : opts.trace ? r.perLayer : r.endToEnd) {
    json::Value v = json::Value::object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    metrics[m.name] = std::move(v);
  }
  json::Value out = json::Value::object();
  out["correct"] = r.failed == 0 && r.attempted > 0;
  out["attempted"] = static_cast<std::int64_t>(r.attempted);
  out["failed"] = static_cast<std::int64_t>(r.failed);
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
