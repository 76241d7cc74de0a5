// The cache-telemetry meta-counters (RuntimeStats::fmMemo* and
// specProgram*): observational samples of the process-wide Fourier-Motzkin
// memo table and the specialized-program caches, excluded from the
// determinism guarantee but pinned here to be monotone non-decreasing and
// internally consistent across a repeated-launch run.

#include <gtest/gtest.h>

#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "rt/runtime.h"
#include "support/rng.h"

namespace polypart::rt {
namespace {

const ir::Module& benchModule() {
  static ir::Module mod = apps::buildBenchmarkModule();
  return mod;
}

const analysis::ApplicationModel& benchModel() {
  static analysis::ApplicationModel model = analysis::analyzeModule(benchModule());
  return model;
}

/// Every telemetry counter (the cache samples and resolution wall time) is
/// non-decreasing from `prev` to `cur`.
void expectMonotone(const RuntimeStats& prev, const RuntimeStats& cur,
                    int step) {
  RuntimeStats::forEach([&](const char* name, counters::Class c, auto m) {
    if (c == counters::Class::Telemetry) {
      EXPECT_GE(cur.*m, prev.*m) << name << " at step " << step;
    }
  });
}

TEST(CacheCounters, MonotoneAndConsistentAcrossRepeatedLaunches) {
  const i64 n = 64;
  const i64 cells = n * n;
  Rng rng(33);
  std::vector<double> temp(static_cast<std::size_t>(cells));
  std::vector<double> power(static_cast<std::size_t>(cells));
  for (auto& v : temp) v = rng.uniform() * 60.0;
  for (auto& v : power) v = rng.uniform();

  RuntimeConfig cfg;
  cfg.numGpus = 4;
  cfg.mode = sim::ExecutionMode::Functional;
  cfg.enumeratorTier = codegen::EnumTier::Specialized;
  // Cache off: every launch re-enumerates, so the specialized-program cache
  // sees the repeat traffic directly (with the plan cache on, replayed
  // launches would bypass enumeration entirely).
  cfg.enableEnumerationCache = false;
  Runtime rt(cfg, benchModel(), benchModule());

  VirtualBuffer* t0 = rt.malloc(cells * 8);
  VirtualBuffer* t1 = rt.malloc(cells * 8);
  VirtualBuffer* pw = rt.malloc(cells * 8);
  rt.memcpy(t0, temp.data(), cells * 8, MemcpyKind::HostToDevice);
  rt.memcpy(pw, power.data(), cells * 8, MemcpyKind::HostToDevice);

  const i64 blocks = (n + apps::kBlock2D - 1) / apps::kBlock2D;
  VirtualBuffer* src = t0;
  VirtualBuffer* dst = t1;
  RuntimeStats prev = rt.stats();
  // A fresh runtime starts its FM baseline at construction: samples are
  // deltas, never negative.
  EXPECT_GE(prev.fmMemoHits, 0);
  EXPECT_GE(prev.fmMemoMisses, 0);
  for (int it = 0; it < 6; ++it) {
    LaunchArg args[] = {LaunchArg::ofInt(n),      LaunchArg::ofFloat(0.4),
                        LaunchArg::ofFloat(0.05), LaunchArg::ofBuffer(src),
                        LaunchArg::ofBuffer(pw),  LaunchArg::ofBuffer(dst)};
    rt.launch("hotspot", {blocks, blocks, 1},
              {apps::kBlock2D, apps::kBlock2D, 1}, args);
    std::swap(src, dst);
    RuntimeStats cur = rt.stats();
    expectMonotone(prev, cur, it);
    prev = cur;
  }

  // Consistency: the first launch compiled specialized programs (misses);
  // the repeats with identical geometry replayed them (hits); nothing can
  // be evicted that was never inserted.
  EXPECT_GT(prev.specProgramMisses, 0);
  EXPECT_GT(prev.specProgramHits, 0);
  EXPECT_LE(prev.specProgramEvictions, prev.specProgramMisses);
  // The FM memo saw traffic from enumeration-time projections.
  EXPECT_GT(prev.fmMemoHits + prev.fmMemoMisses, 0);
  EXPECT_LE(prev.fmMemoEvictions, prev.fmMemoMisses);
}

TEST(CacheCounters, InterpreterTierLeavesSpecCountersFlat) {
  // The interpreter tier never touches the specialized-program cache: its
  // counters must not move between launches of an interpreting runtime.
  const i64 n = 48;
  const i64 cells = n * n;
  std::vector<double> temp(static_cast<std::size_t>(cells), 1.0);
  std::vector<double> power(static_cast<std::size_t>(cells), 0.5);

  RuntimeConfig cfg;
  cfg.numGpus = 3;
  cfg.mode = sim::ExecutionMode::Functional;
  cfg.enumeratorTier = codegen::EnumTier::Interpret;
  cfg.enableEnumerationCache = false;
  Runtime rt(cfg, benchModel(), benchModule());
  VirtualBuffer* t0 = rt.malloc(cells * 8);
  VirtualBuffer* t1 = rt.malloc(cells * 8);
  VirtualBuffer* pw = rt.malloc(cells * 8);
  rt.memcpy(t0, temp.data(), cells * 8, MemcpyKind::HostToDevice);
  rt.memcpy(pw, power.data(), cells * 8, MemcpyKind::HostToDevice);
  const i64 blocks = (n + apps::kBlock2D - 1) / apps::kBlock2D;
  RuntimeStats before = rt.stats();
  VirtualBuffer* src = t0;
  VirtualBuffer* dst = t1;
  for (int it = 0; it < 3; ++it) {
    LaunchArg args[] = {LaunchArg::ofInt(n),      LaunchArg::ofFloat(0.4),
                        LaunchArg::ofFloat(0.05), LaunchArg::ofBuffer(src),
                        LaunchArg::ofBuffer(pw),  LaunchArg::ofBuffer(dst)};
    rt.launch("hotspot", {blocks, blocks, 1},
              {apps::kBlock2D, apps::kBlock2D, 1}, args);
    std::swap(src, dst);
  }
  RuntimeStats after = rt.stats();
  EXPECT_EQ(after.specProgramHits, before.specProgramHits);
  EXPECT_EQ(after.specProgramMisses, before.specProgramMisses);
  EXPECT_EQ(after.specProgramEvictions, before.specProgramEvictions);
}

}  // namespace
}  // namespace polypart::rt
