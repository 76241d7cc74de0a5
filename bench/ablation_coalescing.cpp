// Ablation: full-row coalescing in the enumerators (DESIGN.md choice #1).
//
// The paper's code generator emits the first/last element of every array row
// (Section 6.1).  Our enumerator adds a coalescing layer that collapses
// full-width row runs into single flattened ranges and merges disjuncts.
// This bench measures the effect on (a) the number of emitted ranges and
// tracker operations, and (b) the *real* wall-clock cost of dependency
// resolution per kernel launch.

#include "bench/bench_util.h"

int main() {
  using namespace polypart;
  using namespace polypart::benchutil;

  openBenchReport("ablation_coalescing");
  printHeader("Ablation: enumerator full-row coalescing",
              "polypart design choice (DESIGN.md #1); baseline is the paper's per-row scheme");

  std::printf("\n  %-8s %-7s %4s %10s  %12s  %14s  %14s\n", "Bench", "Size", "GPUs",
              "coalesce", "ranges/launch", "walltime [us]", "sim time [s]");
  for (apps::Benchmark b :
       {apps::Benchmark::Hotspot, apps::Benchmark::Matmul}) {
    apps::WorkloadConfig cfg = apps::configFor(b, apps::ProblemSize::Small);
    const int iters = b == apps::Benchmark::Hotspot ? 20 : 1;
    for (int g : {4, 16}) {
      for (bool coalesce : {true, false}) {
        rt::RuntimeConfig rc;
        rc.numGpus = g;
        rc.mode = sim::ExecutionMode::TimingOnly;
        rc.coalesceEnumerators = coalesce;
        // Measure the per-launch enumeration itself, not cached replays.
        rc.enableEnumerationCache = false;
        rt::Runtime rt(rc, model(), module());
        if (b == apps::Benchmark::Hotspot)
          apps::runHotspot(rt, cfg.problemSize, iters, nullptr, nullptr);
        else
          apps::runMatmul(rt, cfg.problemSize, nullptr, nullptr, nullptr);
        i64 launches = rt.stats().launches;
        std::printf("  %-8s %-7s %4d %10s  %12.1f  %14.1f  %14.3f\n",
                    apps::benchmarkName(b), apps::problemSizeName(cfg.size), g,
                    coalesce ? "on" : "off",
                    static_cast<double>(rt.stats().rangesResolved) /
                        static_cast<double>(launches),
                    1e6 * rt.stats().resolutionWallSeconds /
                        static_cast<double>(launches),
                    rt.elapsedSeconds());
        std::fflush(stdout);
        json::Value& row = benchRow();
        row["benchmark"] = apps::benchmarkName(b);
        row["size"] = apps::problemSizeName(cfg.size);
        row["gpus"] = g;
        row["coalesce"] = coalesce;
        row["rangesPerLaunch"] = static_cast<double>(rt.stats().rangesResolved) /
                                 static_cast<double>(launches);
        row["resolutionWallSecondsPerLaunch"] =
            rt.stats().resolutionWallSeconds / static_cast<double>(launches);
        row["simSeconds"] = rt.elapsedSeconds();
      }
    }
  }
  std::printf("\nExpectation: coalescing reduces emitted ranges by orders of\n"
              "magnitude for stencil workloads; simulated time is unchanged\n"
              "because the modeled per-row cost reflects the paper's scheme\n"
              "either way (see rt::Runtime::kResolutionCostPerRow).\n");
  return 0;
}
