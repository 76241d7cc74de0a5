// Launch-plan enumeration cache on iterative workloads (beyond the paper).
//
// Iterative applications (Hotspot's ping-pong stencil, N-Body's force/update
// pair) relaunch the same kernel configuration thousands of times; the
// paper's runtime re-runs the polyhedral enumeration on every launch.  The
// cache (rt::RuntimeConfig::enableEnumerationCache) memoizes the coalesced
// element ranges per (partition, grid, block, scalars) key and replays them
// against the live trackers instead.  This bench measures the *real*
// dependency-resolution wall time per launch with the cache off (the paper's
// scheme, as modeled by the figure-reproduction benches) and on.
//
// Functional results are byte-identical either way; this binary re-checks
// that on a small Functional-mode Hotspot run and fails on any mismatch.

#include <chrono>
#include <vector>

#include "bench/bench_util.h"
#include "support/rng.h"

namespace {

using namespace polypart;
using namespace polypart::benchutil;

RunResult runWorkload(apps::Benchmark b, i64 n, int iters, int gpus, bool cache) {
  rt::RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::TimingOnly;
  cfg.enableEnumerationCache = cache;
  rt::Runtime rt(cfg, model(), module());
  switch (b) {
    case apps::Benchmark::Hotspot:
      apps::runHotspot(rt, n, iters, nullptr, nullptr);
      break;
    case apps::Benchmark::NBody: {
      apps::NBodyState st{nullptr, nullptr, nullptr, nullptr,
                          nullptr, nullptr, nullptr};
      apps::runNBody(rt, n, iters, st);
      break;
    }
    case apps::Benchmark::Matmul:
      apps::runMatmul(rt, n, nullptr, nullptr, nullptr);
      break;
  }
  return RunResult{rt.elapsedSeconds(), rt.stats(), rt.machineStats()};
}

/// Functional-mode equivalence: a cached run must produce byte-identical
/// buffers and identical transfer statistics.  Returns true when it does.
bool checkEquivalence() {
  const i64 n = 64;
  const int iters = 10;
  Rng rng(2024);
  std::vector<double> init(static_cast<std::size_t>(n * n));
  std::vector<double> power(static_cast<std::size_t>(n * n));
  for (auto& v : init) v = rng.uniform() * 100.0;
  for (auto& v : power) v = rng.uniform();

  auto run = [&](bool cache, std::vector<double>& temp, rt::RuntimeStats& st) {
    rt::RuntimeConfig cfg;
    cfg.numGpus = 4;
    cfg.mode = sim::ExecutionMode::Functional;
    cfg.enableEnumerationCache = cache;
    rt::Runtime rt(cfg, model(), module());
    temp = init;
    apps::runHotspot(rt, n, iters, temp.data(), power.data());
    st = rt.stats();
  };
  std::vector<double> tempOff, tempOn;
  rt::RuntimeStats statsOff, statsOn;
  run(false, tempOff, statsOff);
  run(true, tempOn, statsOn);
  return tempOn == tempOff && statsOn.peerCopies == statsOff.peerCopies &&
         statsOn.rangesResolved == statsOff.rangesResolved &&
         statsOn.enumCacheHits > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = parseItersScale(argc, argv);

  openBenchReport("cache_repeat_launch");
  printHeader("Enumeration cache: repeated-launch resolution cost",
              "polypart extension (beyond the paper); baseline re-enumerates "
              "per launch as in Section 8.3");

  struct Config {
    apps::Benchmark bench;
    i64 n;
    int iters;
    int gpus;
  };
  const Config configs[] = {
      {apps::Benchmark::Hotspot, 8192, 1000, 4},
      {apps::Benchmark::Hotspot, 8192, 1000, 16},
      {apps::Benchmark::NBody, 65536, 500, 8},
  };

  std::printf("\n  %-8s %-7s %4s %6s %9s %14s %12s %10s %8s %6s\n", "Bench",
              "Size", "GPUs", "cache", "launches", "resolve [ms]", "us/launch",
              "hits", "misses", "evict");
  for (const Config& c : configs) {
    int iters = static_cast<int>(static_cast<double>(c.iters) * scale);
    if (iters < 1) iters = 1;
    double wallOff = 0, wallOn = 0;
    for (bool cache : {false, true}) {
      const RunResult r = runWorkload(c.bench, c.n, iters, c.gpus, cache);
      const i64 launches = r.runtime.launches;
      const double wall = r.runtime.resolutionWallSeconds;
      (cache ? wallOn : wallOff) = wall;
      std::printf("  %-8s %-7lld %4d %6s %9lld %14.2f %12.2f %10lld %8lld %6lld\n",
                  apps::benchmarkName(c.bench), static_cast<long long>(c.n),
                  c.gpus, cache ? "on" : "off",
                  static_cast<long long>(launches), 1e3 * wall,
                  1e6 * wall / static_cast<double>(launches),
                  static_cast<long long>(r.runtime.enumCacheHits),
                  static_cast<long long>(r.runtime.enumCacheMisses),
                  static_cast<long long>(r.runtime.enumCacheEvictions));
      std::fflush(stdout);
      json::Value& row = benchRow();
      row["benchmark"] = apps::benchmarkName(c.bench);
      row["n"] = c.n;
      row["gpus"] = c.gpus;
      row["cache"] = cache;
      addCounters(row, r.runtime, r.machine);
    }
    std::printf("  %-8s %-7lld %4d  -> resolution wall-time speedup %.1fx\n",
                apps::benchmarkName(c.bench), static_cast<long long>(c.n),
                c.gpus, wallOff / wallOn);
  }

  std::printf("\nFunctional equivalence (Hotspot 64^2, 4 GPUs, cache on vs off): ");
  if (!checkEquivalence()) {
    std::printf("MISMATCH\n");
    return 1;
  }
  std::printf("byte-identical\n");
  std::printf("\nExpectation: iterative workloads relaunch one configuration, so\n"
              "the cached runs replay memoized plans (hits >> misses) and the\n"
              "real per-launch resolution cost drops several-fold; simulated\n"
              "time barely moves because transfers dominate it.\n");
  return 0;
}
