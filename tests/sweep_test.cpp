// Parameterized end-to-end sweeps (TEST_P): for every (benchmark, GPU count)
// combination, partitioned multi-GPU execution must be bit-identical to the
// CPU reference, and the runtime statistics must be internally consistent.

#include <gtest/gtest.h>

#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/workloads.h"
#include "apps/kernels.h"
#include "apps/reference.h"
#include "rt/runtime.h"
#include "support/rng.h"

namespace polypart::rt {
namespace {

const ir::Module& sharedModule() {
  static ir::Module m = apps::buildBenchmarkModule();
  return m;
}

const analysis::ApplicationModel& sharedModel() {
  static analysis::ApplicationModel m = analysis::analyzeModule(sharedModule());
  return m;
}

std::unique_ptr<Runtime> makeRuntime(int gpus) {
  RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::Functional;
  return std::make_unique<Runtime>(cfg, sharedModel(), sharedModule());
}

struct SweepParam {
  apps::Benchmark bench;
  int gpus;

  friend std::ostream& operator<<(std::ostream& os, const SweepParam& p) {
    return os << apps::benchmarkName(p.bench) << "_" << p.gpus << "gpus";
  }
};

class EndToEndSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EndToEndSweep, MatchesCpuReferenceBitForBit) {
  const SweepParam p = GetParam();
  auto rt = makeRuntime(p.gpus);
  Rng rng(static_cast<unsigned>(1000 + p.gpus));

  switch (p.bench) {
    case apps::Benchmark::Hotspot: {
      const i64 n = 48;
      const int iters = 5;
      std::vector<double> init(static_cast<std::size_t>(n * n));
      std::vector<double> power(static_cast<std::size_t>(n * n));
      for (auto& v : init) v = rng.uniform() * 50;
      for (auto& v : power) v = rng.uniform();
      std::vector<double> expect = init, scratch(init.size());
      for (int it = 0; it < iters; ++it) {
        apps::refHotspotStep(n, 0.175, 0.05, expect, power, scratch);
        std::swap(expect, scratch);
      }
      std::vector<double> got = init;
      apps::runHotspot(*rt, n, iters, got.data(), power.data());
      ASSERT_EQ(got, expect);
      break;
    }
    case apps::Benchmark::NBody: {
      const i64 n = 48;
      const int iters = 3;
      std::vector<double> px(n), py(n), pz(n), vx(n), vy(n), vz(n), mass(n);
      for (auto* v : {&px, &py, &pz, &vx, &vy, &vz})
        for (auto& x : *v) x = rng.uniform() - 0.5;
      for (auto& m : mass) m = 0.2 + rng.uniform();
      std::vector<double> rpx = px, rpy = py, rpz = pz, rvx = vx, rvy = vy, rvz = vz;
      std::vector<double> ax(static_cast<std::size_t>(n)), ay(ax), az(ax);
      for (int it = 0; it < iters; ++it) {
        apps::refNBodyForces(n, rpx, rpy, rpz, mass, ax, ay, az);
        apps::refNBodyUpdate(n, 0.01, rpx, rpy, rpz, rvx, rvy, rvz, ax, ay, az);
      }
      apps::NBodyState st{px.data(), py.data(), pz.data(),
                          vx.data(), vy.data(), vz.data(), mass.data()};
      apps::runNBody(*rt, n, iters, st);
      ASSERT_EQ(px, rpx);
      ASSERT_EQ(py, rpy);
      ASSERT_EQ(vz, rvz);
      break;
    }
    case apps::Benchmark::Matmul: {
      const i64 n = 24;
      std::vector<double> a(static_cast<std::size_t>(n * n));
      std::vector<double> b(static_cast<std::size_t>(n * n));
      for (auto& v : a) v = rng.uniform();
      for (auto& v : b) v = rng.uniform();
      std::vector<double> expect(static_cast<std::size_t>(n * n));
      apps::refMatmul(n, a, b, expect);
      std::vector<double> got(static_cast<std::size_t>(n * n), -7.0);
      apps::runMatmul(*rt, n, a.data(), b.data(), got.data());
      ASSERT_EQ(got, expect);
      break;
    }
  }

  // Statistics sanity: launches happened; resolution ran; simulated time is
  // positive and finite.
  EXPECT_GT(rt->stats().launches, 0);
  EXPECT_GT(rt->stats().rangesResolved, 0);
  EXPECT_GT(rt->elapsedSeconds(), 0.0);
  if (p.gpus == 1) {
    EXPECT_EQ(rt->stats().peerCopies, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllGpuCounts, EndToEndSweep,
    ::testing::Values(
        SweepParam{apps::Benchmark::Hotspot, 1}, SweepParam{apps::Benchmark::Hotspot, 2},
        SweepParam{apps::Benchmark::Hotspot, 3}, SweepParam{apps::Benchmark::Hotspot, 4},
        SweepParam{apps::Benchmark::Hotspot, 5}, SweepParam{apps::Benchmark::Hotspot, 6},
        SweepParam{apps::Benchmark::Hotspot, 8}, SweepParam{apps::Benchmark::Hotspot, 12},
        SweepParam{apps::Benchmark::Hotspot, 16},
        SweepParam{apps::Benchmark::NBody, 1}, SweepParam{apps::Benchmark::NBody, 2},
        SweepParam{apps::Benchmark::NBody, 3}, SweepParam{apps::Benchmark::NBody, 4},
        SweepParam{apps::Benchmark::NBody, 6}, SweepParam{apps::Benchmark::NBody, 8},
        SweepParam{apps::Benchmark::NBody, 12}, SweepParam{apps::Benchmark::NBody, 16},
        SweepParam{apps::Benchmark::Matmul, 1}, SweepParam{apps::Benchmark::Matmul, 2},
        SweepParam{apps::Benchmark::Matmul, 3}, SweepParam{apps::Benchmark::Matmul, 4},
        SweepParam{apps::Benchmark::Matmul, 6}, SweepParam{apps::Benchmark::Matmul, 8},
        SweepParam{apps::Benchmark::Matmul, 12}, SweepParam{apps::Benchmark::Matmul, 16}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(apps::benchmarkName(info.param.bench) ==
                                 std::string("N-Body")
                             ? "NBody"
                             : apps::benchmarkName(info.param.bench)) +
             "_" + std::to_string(info.param.gpus) + "gpus";
    });

/// Execution-tier sweep (see DESIGN.md "Execution tiers"): functional
/// results must be byte-identical and the deterministic RuntimeStats fields
/// tier-invariant across enumeratorTier x enableEnumerationCache.  Hotspot
/// with an odd n guarantees grid overhang, so the guard expressions the
/// tiers evaluate are non-trivial.
TEST(EnumeratorTierSweep, ByteIdenticalAcrossTierCache) {
  const i64 n = 37;
  const int iters = 4;
  Rng rng(91);
  std::vector<double> init(static_cast<std::size_t>(n * n));
  std::vector<double> power(static_cast<std::size_t>(n * n));
  for (auto& v : init) v = rng.uniform() * 40;
  for (auto& v : power) v = rng.uniform();
  std::vector<double> expect = init, scratch(init.size());
  for (int it = 0; it < iters; ++it) {
    apps::refHotspotStep(n, 0.175, 0.05, expect, power, scratch);
    std::swap(expect, scratch);
  }

  auto run = [&](codegen::EnumTier tier, bool cache, RuntimeStats* statsOut) {
    RuntimeConfig cfg;
    cfg.numGpus = 3;
    cfg.mode = sim::ExecutionMode::Functional;
    cfg.enumeratorTier = tier;
    cfg.enableEnumerationCache = cache;
    Runtime rt(cfg, sharedModel(), sharedModule());
    VirtualBuffer* t0 = rt.malloc(n * n * 8);
    VirtualBuffer* t1 = rt.malloc(n * n * 8);
    VirtualBuffer* pw = rt.malloc(n * n * 8);
    rt.memcpy(t0, init.data(), n * n * 8, MemcpyKind::HostToDevice);
    rt.memcpy(pw, power.data(), n * n * 8, MemcpyKind::HostToDevice);
    VirtualBuffer* src = t0;
    VirtualBuffer* dst = t1;
    for (int it = 0; it < iters; ++it) {
      LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(0.175),
                          LaunchArg::ofFloat(0.05), LaunchArg::ofBuffer(src),
                          LaunchArg::ofBuffer(pw), LaunchArg::ofBuffer(dst)};
      rt.launch("hotspot", {(n + 7) / 8, (n + 7) / 8, 1}, {8, 8, 1}, args);
      std::swap(src, dst);
    }
    std::vector<double> got(static_cast<std::size_t>(n * n));
    rt.memcpy(got.data(), src, n * n * 8, MemcpyKind::DeviceToHost);
    *statsOut = rt.stats().deterministic();
    return got;
  };

  for (bool cache : {false, true}) {
    SCOPED_TRACE("cache=" + std::to_string(cache));
    RuntimeStats refStats;
    std::vector<double> ref = run(codegen::EnumTier::Interpret, cache, &refStats);
    ASSERT_EQ(ref, expect) << "interpreter tier diverges from reference";
    for (codegen::EnumTier tier :
         {codegen::EnumTier::Bytecode, codegen::EnumTier::Specialized}) {
      RuntimeStats s;
      std::vector<double> got = run(tier, cache, &s);
      EXPECT_EQ(got, ref) << "tier " << codegen::enumTierName(tier) << " diverges";
      EXPECT_EQ(s, refStats) << "tier " << codegen::enumTierName(tier)
                             << " perturbs deterministic runtime statistics";
    }
  }
}

/// Dataflow-planning axis (see DESIGN.md "Cross-launch dataflow planning"):
/// the hotspot ping-pong is a period-2 launch cycle, so with enough
/// iterations the planner activates and runs planned launches.  Functional
/// results must match the reactive reference bit-for-bit for every
/// combination of planning x tier x cache, and the deterministic stats must
/// be tier-invariant within each planning value (planner counters
/// legitimately differ between planning on and off, like
/// transferScheduling's).
TEST(DataflowPlanningSweep, ByteIdenticalAcrossPlanningTierCache) {
  const i64 n = 37;
  const int iters = 8;
  Rng rng(93);
  std::vector<double> init(static_cast<std::size_t>(n * n));
  std::vector<double> power(static_cast<std::size_t>(n * n));
  for (auto& v : init) v = rng.uniform() * 40;
  for (auto& v : power) v = rng.uniform();
  std::vector<double> expect = init, scratch(init.size());
  for (int it = 0; it < iters; ++it) {
    apps::refHotspotStep(n, 0.175, 0.05, expect, power, scratch);
    std::swap(expect, scratch);
  }

  auto run = [&](bool planning, codegen::EnumTier tier, bool cache,
                 RuntimeStats* statsOut) {
    RuntimeConfig cfg;
    cfg.numGpus = 4;
    cfg.mode = sim::ExecutionMode::Functional;
    cfg.dataflowPlanning = planning;
    cfg.enumeratorTier = tier;
    cfg.enableEnumerationCache = cache;
    Runtime rt(cfg, sharedModel(), sharedModule());
    VirtualBuffer* t0 = rt.malloc(n * n * 8);
    VirtualBuffer* t1 = rt.malloc(n * n * 8);
    VirtualBuffer* pw = rt.malloc(n * n * 8);
    rt.memcpy(t0, init.data(), n * n * 8, MemcpyKind::HostToDevice);
    rt.memcpy(pw, power.data(), n * n * 8, MemcpyKind::HostToDevice);
    VirtualBuffer* src = t0;
    VirtualBuffer* dst = t1;
    for (int it = 0; it < iters; ++it) {
      LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(0.175),
                          LaunchArg::ofFloat(0.05), LaunchArg::ofBuffer(src),
                          LaunchArg::ofBuffer(pw), LaunchArg::ofBuffer(dst)};
      rt.launch("hotspot", {(n + 7) / 8, (n + 7) / 8, 1}, {8, 8, 1}, args);
      std::swap(src, dst);
    }
    std::vector<double> got(static_cast<std::size_t>(n * n));
    rt.memcpy(got.data(), src, n * n * 8, MemcpyKind::DeviceToHost);
    *statsOut = rt.stats().deterministic();
    return got;
  };

  // Stats are compared within fixed (planning, cache): the plan-cache
  // counters differ by design between cache on and off, just as the planner
  // counters differ between planning on and off.  Bytes are compared against
  // the one CPU reference everywhere.
  for (bool planning : {false, true}) {
    for (bool cache : {false, true}) {
      RuntimeStats refStats;
      std::vector<double> ref =
          run(planning, codegen::EnumTier::Interpret, cache, &refStats);
      ASSERT_EQ(ref, expect) << "planning=" << planning << " cache=" << cache
                             << " diverges from the CPU reference";
      if (planning) {
        EXPECT_GE(refStats.planActivations, 1);
        EXPECT_GT(refStats.plannedLaunches, 0);
      } else {
        EXPECT_EQ(refStats.planActivations, 0);
        EXPECT_EQ(refStats.plannedLaunches, 0);
      }
      for (codegen::EnumTier tier :
           {codegen::EnumTier::Bytecode, codegen::EnumTier::Specialized}) {
        SCOPED_TRACE("planning=" + std::to_string(planning) + " tier=" +
                     codegen::enumTierName(tier) + " cache=" +
                     std::to_string(cache));
        RuntimeStats s;
        std::vector<double> got = run(planning, tier, cache, &s);
        EXPECT_EQ(got, ref);
        EXPECT_EQ(s, refStats);
      }
    }
  }
}

/// Parameterized block-shape sweep: hotspot with non-square and non-dividing
/// block shapes must still be exact (grid overhang both axes).
class BlockShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BlockShapeSweep, HotspotExactUnderOddGeometry) {
  auto [bx, by] = GetParam();
  const i64 n = 37;  // prime-ish: guarantees overhang
  const int iters = 3;
  Rng rng(77);
  std::vector<double> init(static_cast<std::size_t>(n * n));
  std::vector<double> power(static_cast<std::size_t>(n * n));
  for (auto& v : init) v = rng.uniform() * 10;
  for (auto& v : power) v = rng.uniform();
  std::vector<double> expect = init, scratch(init.size());
  for (int it = 0; it < iters; ++it) {
    apps::refHotspotStep(n, 0.175, 0.05, expect, power, scratch);
    std::swap(expect, scratch);
  }

  auto rt = makeRuntime(3);
  VirtualBuffer* t0 = rt->malloc(n * n * 8);
  VirtualBuffer* t1 = rt->malloc(n * n * 8);
  VirtualBuffer* pw = rt->malloc(n * n * 8);
  rt->memcpy(t0, init.data(), n * n * 8, MemcpyKind::HostToDevice);
  rt->memcpy(pw, power.data(), n * n * 8, MemcpyKind::HostToDevice);
  ir::Dim3 grid{(n + bx - 1) / bx, (n + by - 1) / by, 1};
  ir::Dim3 block{bx, by, 1};
  VirtualBuffer* src = t0;
  VirtualBuffer* dst = t1;
  for (int it = 0; it < iters; ++it) {
    LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(0.175),
                        LaunchArg::ofFloat(0.05), LaunchArg::ofBuffer(src),
                        LaunchArg::ofBuffer(pw), LaunchArg::ofBuffer(dst)};
    rt->launch("hotspot", grid, block, args);
    std::swap(src, dst);
  }
  std::vector<double> got(static_cast<std::size_t>(n * n));
  rt->memcpy(got.data(), src, n * n * 8, MemcpyKind::DeviceToHost);
  EXPECT_EQ(got, expect) << "block " << bx << "x" << by;
}

INSTANTIATE_TEST_SUITE_P(OddBlockShapes, BlockShapeSweep,
                         ::testing::Values(std::tuple<int, int>{8, 8},
                                           std::tuple<int, int>{16, 4},
                                           std::tuple<int, int>{4, 16},
                                           std::tuple<int, int>{5, 7},
                                           std::tuple<int, int>{1, 32},
                                           std::tuple<int, int>{32, 1},
                                           std::tuple<int, int>{3, 3}));

}  // namespace
}  // namespace polypart::rt
