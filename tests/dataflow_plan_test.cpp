// Correctness suite for the cross-launch dataflow planner
// (rt::RuntimeConfig::dataflowPlanning; see DESIGN.md "Cross-launch dataflow
// planning").  The planner is a pure timing optimization: cycle detection,
// flow-set prefetch, and dead-transfer elision must never change where bytes
// land.  Every test here compares a planning-on run byte-for-byte against
// the reactive paper path (planning off) — including runs whose launch
// sequence deliberately diverges from the detected cycle mid-stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/analyze.h"
#include "apps/kernels.h"
#include "fuzz_util.h"
#include "ir/builder.h"
#include "rt/dataflow_plan.h"
#include "rt/runtime.h"
#include "support/rng.h"

namespace polypart::rt {
namespace {

/// Three-kernel iteration loop with real cross-device flow and a dead write
/// window:
///   scale: y[i] = x[i] * 0.5 + 1.0            (writes all of y)
///   fill:  y[i] = 1.25 for i < m              (overwrites a prefix of y)
///   fold:  x[i] = y[i] + y[n-1-i]             (reversed read: cross-device)
/// In the cycle scale->fill->fold, the prefix of `scale`'s writes that flows
/// to remote `fold` readers is killed by `fill` first — exactly the shape
/// dead-transfer elision prunes.
ir::Module buildLoopModule() {
  ir::Module mod;
  {
    ir::KernelBuilder b("scale");
    auto n = b.scalar("n", ir::Type::I64);
    auto x = b.array("x", ir::Type::F64, {n});
    auto y = b.array("y", ir::Type::F64, {n});
    auto i = b.let("i", b.globalId(ir::Axis::X));
    b.iff(ir::lt(i, n), [&] {
      b.store(y, i, b.load(x, i) * ir::fconst(0.5) + ir::fconst(1.0));
    });
    mod.addKernel(b.build());
  }
  {
    ir::KernelBuilder b("fill");
    auto n = b.scalar("n", ir::Type::I64);
    auto m = b.scalar("m", ir::Type::I64);
    auto y = b.array("y", ir::Type::F64, {n});
    auto i = b.let("i", b.globalId(ir::Axis::X));
    b.iff(ir::land(ir::lt(i, n), ir::lt(i, m)),
          [&] { b.store(y, i, ir::fconst(1.25)); });
    mod.addKernel(b.build());
  }
  {
    ir::KernelBuilder b("fold");
    auto n = b.scalar("n", ir::Type::I64);
    auto y = b.array("y", ir::Type::F64, {n});
    auto x = b.array("x", ir::Type::F64, {n});
    auto i = b.let("i", b.globalId(ir::Axis::X));
    b.iff(ir::lt(i, n), [&] {
      b.store(x, i, b.load(y, i) + b.load(y, n - ir::iconst(1) - i));
    });
    mod.addKernel(b.build());
  }
  return mod;
}

const ir::Module& loopModule() {
  static ir::Module mod = buildLoopModule();
  return mod;
}

const analysis::ApplicationModel& loopModel() {
  static analysis::ApplicationModel model = analysis::analyzeModule(loopModule());
  return model;
}

constexpr i64 kN = 512;
constexpr i64 kBlock = 64;

/// One step of the loop on the CPU, mirroring the kernels exactly.
void refStep(std::vector<double>& x, std::vector<double>& y, i64 m) {
  const i64 n = static_cast<i64>(x.size());
  for (i64 i = 0; i < n; ++i)
    y[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)] * 0.5 + 1.0;
  for (i64 i = 0; i < std::min(m, n); ++i) y[static_cast<std::size_t>(i)] = 1.25;
  std::vector<double> yr = y;
  for (i64 i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] =
        yr[static_cast<std::size_t>(i)] + yr[static_cast<std::size_t>(n - 1 - i)];
}

/// A launch script: per step, which kernel of the loop to run and (for fill)
/// the prefix length.  Lets the divergence tests replay the exact same
/// possibly-irregular sequence on both runtimes and on the CPU.
struct ScriptStep {
  int op = 0;  // 0 = scale, 1 = fill, 2 = fold
  i64 m = 0;   // fill prefix
};

struct RunOut {
  std::vector<double> x, y;
  RuntimeStats stats;
};

RunOut runScript(bool planning, int gpus, const std::vector<ScriptStep>& script,
                 const std::vector<double>& x0) {
  RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::Functional;
  cfg.dataflowPlanning = planning;
  Runtime rt(cfg, loopModel(), loopModule());
  const i64 bytes = kN * 8;
  VirtualBuffer* vx = rt.malloc(bytes);
  VirtualBuffer* vy = rt.malloc(bytes);
  std::vector<double> y0(static_cast<std::size_t>(kN), 0.0);
  rt.memcpy(vx, x0.data(), bytes, MemcpyKind::HostToDevice);
  rt.memcpy(vy, y0.data(), bytes, MemcpyKind::HostToDevice);

  const ir::Dim3 grid{kN / kBlock, 1, 1}, block{kBlock, 1, 1};
  for (const ScriptStep& s : script) {
    switch (s.op) {
      case 0: {
        LaunchArg args[] = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vx),
                            LaunchArg::ofBuffer(vy)};
        rt.launch("scale", grid, block, args);
        break;
      }
      case 1: {
        LaunchArg args[] = {LaunchArg::ofInt(kN), LaunchArg::ofInt(s.m),
                            LaunchArg::ofBuffer(vy)};
        rt.launch("fill", grid, block, args);
        break;
      }
      default: {
        LaunchArg args[] = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vy),
                            LaunchArg::ofBuffer(vx)};
        rt.launch("fold", grid, block, args);
        break;
      }
    }
  }
  RunOut out;
  out.x.assign(static_cast<std::size_t>(kN), -1.0);
  out.y.assign(static_cast<std::size_t>(kN), -1.0);
  rt.memcpy(out.x.data(), vx, bytes, MemcpyKind::DeviceToHost);
  rt.memcpy(out.y.data(), vy, bytes, MemcpyKind::DeviceToHost);
  out.stats = rt.stats();
  return out;
}

std::vector<ScriptStep> regularScript(int iters, i64 m) {
  std::vector<ScriptStep> script;
  for (int it = 0; it < iters; ++it) {
    script.push_back({0, 0});
    script.push_back({1, m});
    script.push_back({2, 0});
  }
  return script;
}

std::vector<double> seededInput(u64 seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(kN));
  for (auto& v : x) v = rng.uniform() * 4.0 - 2.0;
  return x;
}

TEST(DataflowPlan, SteadyLoopActivatesPlansAndElides) {
  const std::vector<double> x0 = seededInput(17);
  const std::vector<ScriptStep> script = regularScript(/*iters=*/8, kN / 2);

  RunOut off = runScript(/*planning=*/false, /*gpus=*/4, script, x0);
  RunOut on = runScript(/*planning=*/true, /*gpus=*/4, script, x0);

  // Byte identity against the reactive path and against the CPU reference.
  EXPECT_EQ(on.x, off.x);
  EXPECT_EQ(on.y, off.y);
  std::vector<double> rx = x0, ry(static_cast<std::size_t>(kN), 0.0);
  for (int it = 0; it < 8; ++it) refStep(rx, ry, kN / 2);
  EXPECT_EQ(on.x, rx);
  EXPECT_EQ(on.y, ry);

  // The period-3 cycle must have been detected, planned launches executed,
  // prefetches issued, and the fill-killed prefix elided.
  EXPECT_GE(on.stats.planActivations, 1);
  EXPECT_EQ(on.stats.planDivergences, 0);
  EXPECT_GT(on.stats.plannedLaunches, 0);
  EXPECT_GT(on.stats.prefetchCopies, 0);
  EXPECT_GT(on.stats.bytesPrefetched, 0);
  EXPECT_GT(on.stats.bytesElided, 0);
  EXPECT_GT(on.stats.prefetchHits, 0);

  // Planning off: all planner counters pinned to zero.
  EXPECT_EQ(off.stats.planActivations, 0);
  EXPECT_EQ(off.stats.plannedLaunches, 0);
  EXPECT_EQ(off.stats.prefetchCopies, 0);
  EXPECT_EQ(off.stats.bytesElided, 0);
  EXPECT_EQ(off.stats.prefetchHits, 0);
}

TEST(DataflowPlan, ElisionGrowsWithTheKilledPrefix) {
  // A larger fill prefix kills more of scale's flow to fold: elided bytes
  // must be monotone in m, and zero when nothing is overwritten.
  const std::vector<double> x0 = seededInput(18);
  i64 prevElided = -1;
  for (i64 m : {i64{0}, kN / 4, kN / 2}) {
    RunOut off = runScript(false, 4, regularScript(6, m), x0);
    RunOut on = runScript(true, 4, regularScript(6, m), x0);
    EXPECT_EQ(on.x, off.x) << "m=" << m;
    EXPECT_EQ(on.y, off.y) << "m=" << m;
    EXPECT_GE(on.stats.bytesElided, prevElided) << "m=" << m;
    prevElided = on.stats.bytesElided;
  }
  EXPECT_GT(prevElided, 0);
}

TEST(DataflowPlan, MispredictedSequenceFallsBackReactively) {
  // Warm up the plan with 4 regular iterations, then break the cycle: a
  // fill with a different prefix scalar (off-plan signature), an extra
  // back-to-back fold, then resume the regular pattern.  The planner must
  // record a divergence, and the bytes must stay identical to the reactive
  // path running the very same irregular script.
  std::vector<ScriptStep> script = regularScript(4, kN / 2);
  script.push_back({0, 0});
  script.push_back({1, kN / 4});  // scalar change: breaks the signature match
  script.push_back({2, 0});
  script.push_back({2, 0});  // duplicated fold: breaks the kernel sequence
  for (int it = 0; it < 4; ++it) {
    script.push_back({0, 0});
    script.push_back({1, kN / 2});
    script.push_back({2, 0});
  }

  const std::vector<double> x0 = seededInput(19);
  RunOut off = runScript(false, 4, script, x0);
  RunOut on = runScript(true, 4, script, x0);
  EXPECT_EQ(on.x, off.x);
  EXPECT_EQ(on.y, off.y);
  EXPECT_GE(on.stats.planActivations, 1);
  EXPECT_GE(on.stats.planDivergences, 1);
}

TEST(DataflowPlan, SingleGpuPlansMoveNoBytes) {
  // With one device there is no peer flow: planning may activate but must
  // issue no copies and elide nothing.
  const std::vector<double> x0 = seededInput(20);
  RunOut on = runScript(true, 1, regularScript(6, kN / 2), x0);
  std::vector<double> rx = x0, ry(static_cast<std::size_t>(kN), 0.0);
  for (int it = 0; it < 6; ++it) refStep(rx, ry, kN / 2);
  EXPECT_EQ(on.x, rx);
  EXPECT_EQ(on.stats.prefetchCopies, 0);
  EXPECT_EQ(on.stats.bytesPrefetched, 0);
}

TEST(DataflowPlan, RandomizedDivergenceFuzz) {
  // Random scripts biased toward the regular cycle but sprinkled with
  // perturbations (changed fill prefixes, dropped or duplicated steps):
  // every script must land identical bytes with planning on and off, no
  // matter where the plan activates or diverges.  Seeds follow
  // tests/fuzz_util.h (replay one case with POLYPART_FUZZ_SEED=<seed>).
  for (int c = 0; c < fuzz::caseCount(12); ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(21, c));
    SCOPED_TRACE(rng.replay());
    const int gpus = static_cast<int>(rng.range(2, 5));
    std::vector<ScriptStep> script;
    int op = 0;
    i64 m = kN / 2;
    const int steps = static_cast<int>(rng.range(18, 36));
    for (int s = 0; s < steps; ++s) {
      if (rng.chance(0.12)) {
        // Perturb: re-roll the fill prefix and/or jump to a random op.
        m = rng.range(0, kN);
        if (rng.chance(0.5)) op = static_cast<int>(rng.range(0, 2));
      }
      script.push_back({op, m});
      op = (op + 1) % 3;
    }
    const std::vector<double> x0 = seededInput(rng.seed());
    RunOut off = runScript(false, gpus, script, x0);
    RunOut on = runScript(true, gpus, script, x0);
    EXPECT_EQ(on.x, off.x) << rng.replay() << " gpus=" << gpus;
    EXPECT_EQ(on.y, off.y) << rng.replay() << " gpus=" << gpus;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DataflowPlan, PlanningIsDeterministicWithAndWithoutCache) {
  // With planning on, results must not depend on the enumeration cache (the
  // planner composes the same flow sets from replayed and fresh plans), and
  // the deterministic stats of each cache setting must repeat run over run.
  const std::vector<double> x0 = seededInput(22);
  const std::vector<ScriptStep> script = regularScript(6, kN / 2);
  auto runWith = [&](bool cache) {
    RuntimeConfig cfg;
    cfg.numGpus = 4;
    cfg.mode = sim::ExecutionMode::Functional;
    cfg.dataflowPlanning = true;
    cfg.enableEnumerationCache = cache;
    Runtime rt(cfg, loopModel(), loopModule());
    const i64 bytes = kN * 8;
    VirtualBuffer* vx = rt.malloc(bytes);
    VirtualBuffer* vy = rt.malloc(bytes);
    std::vector<double> y0(static_cast<std::size_t>(kN), 0.0);
    rt.memcpy(vx, x0.data(), bytes, MemcpyKind::HostToDevice);
    rt.memcpy(vy, y0.data(), bytes, MemcpyKind::HostToDevice);
    const ir::Dim3 grid{kN / kBlock, 1, 1}, block{kBlock, 1, 1};
    for (const ScriptStep& s : script) {
      if (s.op == 0) {
        LaunchArg args[] = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vx),
                            LaunchArg::ofBuffer(vy)};
        rt.launch("scale", grid, block, args);
      } else if (s.op == 1) {
        LaunchArg args[] = {LaunchArg::ofInt(kN), LaunchArg::ofInt(s.m),
                            LaunchArg::ofBuffer(vy)};
        rt.launch("fill", grid, block, args);
      } else {
        LaunchArg args[] = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vy),
                            LaunchArg::ofBuffer(vx)};
        rt.launch("fold", grid, block, args);
      }
    }
    rt.deviceSynchronize();
    RunOut out;
    out.x.assign(static_cast<std::size_t>(kN), -1.0);
    rt.memcpy(out.x.data(), vx, bytes, MemcpyKind::DeviceToHost);
    out.stats = rt.stats().deterministic();
    return out;
  };
  RunOut ref = runWith(/*cache=*/true);
  EXPECT_GT(ref.stats.plannedLaunches, 0);
  EXPECT_EQ(runWith(/*cache=*/true).stats, ref.stats);
  RunOut uncached = runWith(/*cache=*/false);
  EXPECT_EQ(uncached.x, ref.x);
  EXPECT_EQ(uncached.stats.plannedLaunches, ref.stats.plannedLaunches);
  EXPECT_EQ(runWith(/*cache=*/false).stats, uncached.stats);
}

TEST(DataflowPlan, FreeDropsThePlan) {
  // Recorded launch signatures hold buffer identities, and an address can be
  // reused, so any free() drops the active plan and the history: the same
  // cycle is detected, and counted, a second time.
  RuntimeConfig cfg;
  cfg.numGpus = 4;
  cfg.mode = sim::ExecutionMode::Functional;
  cfg.dataflowPlanning = true;
  Runtime rt(cfg, loopModel(), loopModule());
  const i64 bytes = kN * 8;
  VirtualBuffer* vx = rt.malloc(bytes);
  VirtualBuffer* vy = rt.malloc(bytes);
  VirtualBuffer* unrelated = rt.malloc(bytes);
  const std::vector<double> x0 = seededInput(23);
  rt.memcpy(vx, x0.data(), bytes, MemcpyKind::HostToDevice);
  const ir::Dim3 grid{kN / kBlock, 1, 1}, block{kBlock, 1, 1};
  auto iterate = [&](int iters) {
    for (int it = 0; it < iters; ++it) {
      LaunchArg scale[] = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vx),
                           LaunchArg::ofBuffer(vy)};
      rt.launch("scale", grid, block, scale);
      LaunchArg fill[] = {LaunchArg::ofInt(kN), LaunchArg::ofInt(kN / 2),
                          LaunchArg::ofBuffer(vy)};
      rt.launch("fill", grid, block, fill);
      LaunchArg fold[] = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vy),
                          LaunchArg::ofBuffer(vx)};
      rt.launch("fold", grid, block, fold);
    }
  };
  iterate(4);
  EXPECT_EQ(rt.stats().planActivations, 1);
  rt.free(unrelated);
  iterate(4);
  EXPECT_EQ(rt.stats().planActivations, 2);
  EXPECT_EQ(rt.stats().planDivergences, 0);
}

TEST(DataflowPlan, PlannedCycleSurvivesRepartition) {
  // Regression: a repartition changes every kernel's footprint geometry, so
  // any cycle the planner detected beforehand prefetches the *old* flow sets.
  // Repartitioning must invalidate the planner's cached plan; a stale plan
  // would prefetch to the wrong devices and (worse) elide transfers that
  // are no longer dead.  Byte-identity against the reactive path running the
  // same schedule is the strongest possible check.
  const std::vector<double> x0 = seededInput(23);
  const i64 bytes = kN * 8;
  const Partitioning skew{{3, 1, 1, 3}};

  auto runWith = [&](bool planning) {
    RuntimeConfig cfg;
    cfg.numGpus = 4;
    cfg.mode = sim::ExecutionMode::Functional;
    cfg.dataflowPlanning = planning;
    cfg.allowRepartitioning = true;
    Runtime rt(cfg, loopModel(), loopModule());
    VirtualBuffer* vx = rt.malloc(bytes);
    VirtualBuffer* vy = rt.malloc(bytes);
    std::vector<double> y0(static_cast<std::size_t>(kN), 0.0);
    rt.memcpy(vx, x0.data(), bytes, MemcpyKind::HostToDevice);
    rt.memcpy(vy, y0.data(), bytes, MemcpyKind::HostToDevice);
    const ir::Dim3 grid{kN / kBlock, 1, 1}, block{kBlock, 1, 1};
    auto iterate = [&](int iters) {
      for (int it = 0; it < iters; ++it) {
        LaunchArg a0[] = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vx),
                          LaunchArg::ofBuffer(vy)};
        rt.launch("scale", grid, block, a0);
        LaunchArg a1[] = {LaunchArg::ofInt(kN), LaunchArg::ofInt(kN / 2),
                          LaunchArg::ofBuffer(vy)};
        rt.launch("fill", grid, block, a1);
        LaunchArg a2[] = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vy),
                          LaunchArg::ofBuffer(vx)};
        rt.launch("fold", grid, block, a2);
      }
    };
    iterate(6);  // long enough for the cycle to activate and run planned
    rt.repartitionAll(skew);
    iterate(6);  // the plan must re-learn the new geometry, not replay stale
    RunOut out;
    out.x.assign(static_cast<std::size_t>(kN), -1.0);
    out.y.assign(static_cast<std::size_t>(kN), -1.0);
    rt.memcpy(out.x.data(), vx, bytes, MemcpyKind::DeviceToHost);
    rt.memcpy(out.y.data(), vy, bytes, MemcpyKind::DeviceToHost);
    out.stats = rt.stats();
    return out;
  };

  RunOut off = runWith(false);
  RunOut on = runWith(true);
  EXPECT_EQ(on.x, off.x);
  EXPECT_EQ(on.y, off.y);
  std::vector<double> rx = x0, ry(static_cast<std::size_t>(kN), 0.0);
  for (int it = 0; it < 12; ++it) refStep(rx, ry, kN / 2);
  EXPECT_EQ(on.x, rx);
  EXPECT_EQ(on.y, ry);
  // The plan was live before the repartition and re-activated on the new
  // geometry afterwards: at least two activations, and planned launches on
  // both sides of the transition.
  EXPECT_GE(on.stats.planActivations, 2);
  EXPECT_GT(on.stats.plannedLaunches, 0);
}

TEST(DataflowPlan, SubtractRangesMatchesElementOracle) {
  // Elision and the repartition transition set both subtract sorted range
  // lists; compare against per-element membership on random lists.
  static constexpr i64 kSpan = 64;
  auto randomRanges = [](fuzz::SeededRng& rng) {
    ElemRanges r;
    for (i64 at = rng.range(0, 4); at < kSpan; at += rng.range(1, 6)) {
      const i64 end = std::min(kSpan, at + rng.range(1, 8));
      r.emplace_back(at, end);
      at = end;
    }
    return r;
  };
  auto members = [](const ElemRanges& r) {
    std::vector<bool> in(static_cast<std::size_t>(kSpan), false);
    for (const auto& [lo, hi] : r)
      for (i64 x = lo; x < hi; ++x) in[static_cast<std::size_t>(x)] = true;
    return in;
  };
  for (int c = 0; c < fuzz::caseCount(200); ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(24, c));
    SCOPED_TRACE(rng.replay());
    const ElemRanges a = randomRanges(rng), b = randomRanges(rng);
    const ElemRanges d = subtractRanges(a, b);
    const std::vector<bool> ina = members(a), inb = members(b), ind = members(d);
    for (std::size_t x = 0; x < ina.size(); ++x)
      ASSERT_EQ(ind[x], ina[x] && !inb[x]) << "element " << x;
    for (std::size_t i = 0; i < d.size(); ++i) {
      ASSERT_LT(d[i].first, d[i].second);
      if (i > 0) {
        ASSERT_LT(d[i - 1].second, d[i].first);  // sorted, with gaps between
      }
    }
    EXPECT_EQ(countElements(d),
              static_cast<i64>(std::count(ind.begin(), ind.end(), true)));
  }
}

TEST(DataflowPlan, HotspotPingPongPrefetchesTheWholeHalo) {
  // Hotspot's ping-pong cycle (tin -> tout, then tout -> tin) on 4 devices.
  // Its read enumerator walks the rectangular hull of the five stencil
  // disjuncts, so the reactive sync pulls each neighbour's full boundary row,
  // corner elements included.  The plan must prefetch that same row: once
  // the plan is warm no launch may issue a reactive peer copy, and every
  // cycle must still prefetch the halo.  Bytes match the reactive path.
  ir::Module mod;
  mod.addKernel(apps::buildHotspot());
  const analysis::ApplicationModel model = analysis::analyzeModule(mod);
  constexpr i64 n = 64;  // 4 block rows of 16: one per device
  constexpr int kCycles = 8;
  const i64 bytes = n * n * 8;
  std::vector<double> t0(static_cast<std::size_t>(n * n)),
      power(static_cast<std::size_t>(n * n));
  Rng rng(24);
  for (double& v : t0) v = rng.uniform() * 100.0;
  for (double& v : power) v = rng.uniform();

  struct Out {
    std::vector<double> temp;
    std::vector<RuntimeStats> perCycle;  // stats after each cycle
  };
  auto runWith = [&](bool planning) {
    RuntimeConfig cfg;
    cfg.numGpus = 4;
    cfg.mode = sim::ExecutionMode::Functional;
    cfg.dataflowPlanning = planning;
    Runtime rt(cfg, model, mod);
    VirtualBuffer* va = rt.malloc(bytes);
    VirtualBuffer* vb = rt.malloc(bytes);
    VirtualBuffer* vp = rt.malloc(bytes);
    rt.memcpy(va, t0.data(), bytes, MemcpyKind::HostToDevice);
    rt.memcpy(vb, t0.data(), bytes, MemcpyKind::HostToDevice);
    rt.memcpy(vp, power.data(), bytes, MemcpyKind::HostToDevice);
    const ir::Dim3 grid{n / 16, n / 16, 1}, block{16, 16, 1};
    Out out;
    for (int c = 0; c < kCycles; ++c) {
      for (auto [src, dst] : {std::pair{va, vb}, std::pair{vb, va}}) {
        LaunchArg args[] = {LaunchArg::ofInt(n),       LaunchArg::ofFloat(0.175),
                            LaunchArg::ofFloat(0.05),  LaunchArg::ofBuffer(src),
                            LaunchArg::ofBuffer(vp),   LaunchArg::ofBuffer(dst)};
        rt.launch("hotspot", grid, block, args);
      }
      out.perCycle.push_back(rt.stats());
    }
    out.temp.assign(static_cast<std::size_t>(n * n), -1.0);
    rt.memcpy(out.temp.data(), va, bytes, MemcpyKind::DeviceToHost);
    return out;
  };

  const Out off = runWith(false);
  const Out on = runWith(true);
  EXPECT_EQ(on.temp, off.temp);
  EXPECT_GT(on.perCycle.back().plannedLaunches, 0);
  EXPECT_EQ(on.perCycle.back().planDivergences, 0);
  // Plan compilation enumerates outside the enumeration cache.
  EXPECT_EQ(on.perCycle.back().enumCacheHits, off.perCycle.back().enumCacheHits);
  EXPECT_EQ(on.perCycle.back().enumCacheMisses,
            off.perCycle.back().enumCacheMisses);
  // Cycles 0-1 record the period and the launch that ends cycle 1
  // activates the plan.  Cycle 2 is the first planned one; its first launch
  // still reads what the unplanned activating launch wrote.  From the
  // second planned cycle (index 3) on, every halo byte is prefetched.
  for (int c = 3; c < kCycles; ++c) {
    SCOPED_TRACE(c);
    const RuntimeStats& prev = on.perCycle[static_cast<std::size_t>(c - 1)];
    const RuntimeStats& cur = on.perCycle[static_cast<std::size_t>(c)];
    EXPECT_EQ(cur.peerCopies, prev.peerCopies);
    EXPECT_GT(cur.prefetchCopies, prev.prefetchCopies);
  }
}

}  // namespace
}  // namespace polypart::rt
