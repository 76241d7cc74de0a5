// Ablation: host-to-device distribution pattern (DESIGN.md choice #3).
//
// The paper distributes H2D memcopies linearly (Section 8.2) and relies on
// the runtime to correct mismatches — Matmul's column-wise read of B is the
// showcase (Section 9.1).  This bench compares the linear pattern against a
// round-robin page distribution, which maximizes the mismatch: every GPU's
// read set touches every page owner, fragmenting the correction into many
// small transfers.

#include "bench/bench_util.h"

int main() {
  using namespace polypart;
  using namespace polypart::benchutil;

  openBenchReport("ablation_h2d");
  printHeader("Ablation: H2D distribution pattern (linear vs round-robin pages)",
              "paper Section 8.2 default vs alternative");

  std::printf("\n  %-8s %4s %12s  %12s  %12s  %12s\n", "Bench", "GPUs", "pattern",
              "sim time [s]", "peer copies", "p2p [MB]");
  for (int g : {4, 8, 16}) {
    for (auto dist : {rt::H2DDistribution::Linear, rt::H2DDistribution::RoundRobinPages}) {
      rt::RuntimeConfig rc;
      rc.numGpus = g;
      rc.mode = sim::ExecutionMode::TimingOnly;
      rc.h2dDistribution = dist;
      // Model the paper's runtime: re-enumerate per launch, no plan cache.
      rc.enableEnumerationCache = false;
      rt::Runtime rt(rc, model(), module());
      apps::WorkloadConfig cfg = apps::configFor(apps::Benchmark::Matmul,
                                                 apps::ProblemSize::Small);
      apps::runMatmul(rt, cfg.problemSize, nullptr, nullptr, nullptr);
      std::printf("  %-8s %4d %12s  %12.3f  %12lld  %12.1f\n", "Matmul", g,
                  dist == rt::H2DDistribution::Linear ? "linear" : "round-robin",
                  rt.elapsedSeconds(),
                  static_cast<long long>(rt.stats().peerCopies),
                  static_cast<double>(rt.machineStats().bytesPeerToPeer) / 1e6);
      std::fflush(stdout);
      json::Value& row = benchRow();
      row["benchmark"] = "Matmul";
      row["gpus"] = g;
      row["pattern"] =
          dist == rt::H2DDistribution::Linear ? "linear" : "round-robin";
      row["simSeconds"] = rt.elapsedSeconds();
      addCounters(row, rt.stats(), rt.machineStats());
    }
  }
  std::printf("\nExpectation: the linear default keeps A's row reads aligned with\n"
              "ownership (no correction for A), while round-robin pages force\n"
              "every array to be reassembled from all owners.\n");
  return 0;
}
