// Ablation: shared-copy tracking in the segment tracker.
//
// The paper's tracker records a single owner per segment and notes the
// consequence: "resulting in redundant transfers for applications with
// large amounts of shared data" (Section 8.3).  Our extension keeps a
// sharer set per segment, so data that was already replicated to a GPU and
// not rewritten since is not copied again.  Read-only shared inputs — the
// Hotspot power grid, the N-Body masses — are re-broadcast every iteration
// without it and exactly once with it.

#include "bench/bench_util.h"

int main() {
  using namespace polypart;
  using namespace polypart::benchutil;

  openBenchReport("ablation_shared_copies");
  printHeader("Ablation: shared-copy tracking (extension of Section 8.3)",
              "paper limitation: single-owner tracker causes redundant transfers");

  std::printf("\n  %-8s %4s %8s  %12s  %12s  %12s  %12s\n", "Bench", "GPUs",
              "shared", "sim time [s]", "p2p [MB]", "peer copies", "hits");

  struct Case {
    apps::Benchmark bench;
    i64 n;
    int iters;
  };
  for (const Case& c : {Case{apps::Benchmark::Hotspot, 8192, 100},
                        Case{apps::Benchmark::NBody, 65536, 24}}) {
    for (int g : {4, 16}) {
      for (bool shared : {false, true}) {
        rt::RuntimeConfig rc;
        rc.numGpus = g;
        rc.mode = sim::ExecutionMode::TimingOnly;
        rc.trackSharedCopies = shared;
        // Model the paper's runtime: re-enumerate per launch, no plan cache.
        rc.enableEnumerationCache = false;
        rt::Runtime rt(rc, model(), module());
        if (c.bench == apps::Benchmark::Hotspot) {
          apps::runHotspot(rt, c.n, c.iters, nullptr, nullptr);
        } else {
          apps::NBodyState st{nullptr, nullptr, nullptr, nullptr,
                              nullptr, nullptr, nullptr};
          apps::runNBody(rt, c.n, c.iters, st);
        }
        std::printf("  %-8s %4d %8s  %12.3f  %12.1f  %12lld  %12lld\n",
                    apps::benchmarkName(c.bench), g, shared ? "on" : "off",
                    rt.elapsedSeconds(),
                    static_cast<double>(rt.machineStats().bytesPeerToPeer) / 1e6,
                    static_cast<long long>(rt.stats().peerCopies),
                    static_cast<long long>(rt.stats().sharedCopyHits));
        std::fflush(stdout);
        json::Value& row = benchRow();
        row["benchmark"] = apps::benchmarkName(c.bench);
        row["gpus"] = g;
        row["sharedCopyTracking"] = shared;
        row["simSeconds"] = rt.elapsedSeconds();
        addCounters(row, rt.stats(), rt.machineStats());
      }
    }
  }
  std::printf("\nExpectation: with shared-copy tracking, read-only inputs stop\n"
              "being re-transferred each iteration (N-Body masses, boundary\n"
              "power rows); written data (positions, temperature halos) still\n"
              "moves because writes invalidate replicas.\n");
  return 0;
}
