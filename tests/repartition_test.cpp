// Elastic repartitioning tests (Runtime::repartition; DESIGN.md "Elastic
// repartitioning").
//
// Layers:
//   1. Contract tests: the knob gate, partitioning validation, and the
//      guarantee that all-even weights reproduce the paper's fixed split.
//   2. A minimality test on a known geometry: the transition moves exactly
//      the old/new footprint difference, asserted against the full
//      new-footprint upper bound (what naive re-distribution would move).
//   3. A byte-identity sweep: a workload with a mid-run repartition produces
//      CPU-reference results under every cache x transferScheduling
//      combination, with full stats determinism run over run.
//   4. Elasticity (shrink/grow the active device set) and the
//      load-rebalancing policy on a heterogeneous MachineSpec.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "analysis/analyze.h"
#include "ir/builder.h"
#include "rt/runtime.h"

namespace polypart::rt {
namespace {

using ir::fconst;
using ir::ge;
using ir::iconst;
using ir::land;
using ir::le;
using ir::lt;

constexpr i64 kN = 512;

/// Two kernels ping-ponged over one pair of buffers: an affine map (writes
/// exactly its partition) and a 3-point stencil (halo reads cross partition
/// boundaries, so every transition geometry is exercised by the reactive
/// resolution too).
ir::Module buildWorkload() {
  ir::Module mod;
  {
    ir::KernelBuilder b("scale");
    auto n = b.scalar("n", ir::Type::I64);
    auto in = b.array("in", ir::Type::F64, {n});
    auto out = b.array("out", ir::Type::F64, {n});
    auto x = b.let("x", b.globalId(ir::Axis::X));
    b.iff(lt(x, n),
          [&] { b.store(out, x, b.load(in, x) * fconst(0.5) + fconst(1.0)); });
    mod.addKernel(b.build());
  }
  {
    ir::KernelBuilder b("stencil");
    auto n = b.scalar("n", ir::Type::I64);
    auto in = b.array("in", ir::Type::F64, {n});
    auto out = b.array("out", ir::Type::F64, {n});
    auto x = b.let("x", b.globalId(ir::Axis::X));
    b.iff(lt(x, n), [&] {
      b.iff(
          land(ge(x, iconst(1)), le(x, n - iconst(2))),
          [&] {
            b.store(out, x,
                    b.load(in, x - iconst(1)) + b.load(in, x) +
                        b.load(in, x + iconst(1)));
          },
          [&] { b.store(out, x, fconst(-2.0)); });
    });
    mod.addKernel(b.build());
  }
  return mod;
}

void refScale(const std::vector<double>& in, std::vector<double>& out) {
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i] * 0.5 + 1.0;
}

void refStencil(const std::vector<double>& in, std::vector<double>& out) {
  const std::size_t n = in.size();
  for (std::size_t i = 0; i < n; ++i)
    out[i] = (i >= 1 && i + 2 <= n) ? in[i - 1] + in[i] + in[i + 1] : -2.0;
}

std::vector<double> makeInput() {
  std::vector<double> v(kN);
  for (i64 i = 0; i < kN; ++i)
    v[static_cast<std::size_t>(i)] = static_cast<double>(i % 23) * 0.5 - 4.0;
  return v;
}

RuntimeConfig baseConfig(int gpus) {
  RuntimeConfig rc;
  rc.numGpus = gpus;
  rc.machine = sim::MachineSpec::k80Node(gpus);
  rc.allowRepartitioning = true;
  return rc;
}

// --------------------------------------------------------------------------
// Contract tests.

TEST(Repartition, DisabledByDefaultThrows) {
  RuntimeConfig rc = baseConfig(2);
  rc.allowRepartitioning = false;  // explicit: the env knob may force it on
  ir::Module mod = buildWorkload();
  Runtime rt(rc, analysis::analyzeModule(mod), mod);
  EXPECT_THROW(rt.repartition("scale", Partitioning{{2, 1}}), Error);
  EXPECT_THROW(rt.repartitionAll(Partitioning{{2, 1}}), Error);
}

TEST(Repartition, InvalidPartitioningThrows) {
  ir::Module mod = buildWorkload();
  Runtime rt(baseConfig(4), analysis::analyzeModule(mod), mod);
  EXPECT_THROW(rt.repartition("scale", Partitioning{{1, 1}}), Error);  // arity
  EXPECT_THROW(rt.repartition("scale", Partitioning{{1, -1, 1, 1}}), Error);
  EXPECT_THROW(rt.repartition("scale", Partitioning{{0, 0, 0, 0}}), Error);
  EXPECT_THROW(
      rt.repartition("scale", Partitioning{{i64{1} << 30, 1, 1, 1}}), Error);
  // Unchanged by the failed attempts.
  EXPECT_EQ(rt.partitioning("scale"), Partitioning::even(4));

  // Weights whose sum wraps (INT64_MAX + INT64_MAX + 3 is 1 in two's
  // complement) are rejected weight by weight, before any sum is formed.
  constexpr i64 kMax = std::numeric_limits<i64>::max();
  Runtime rt3(baseConfig(3), analysis::analyzeModule(mod), mod);
  EXPECT_THROW(rt3.repartition("scale", Partitioning{{kMax, kMax, 3}}), Error);
  EXPECT_EQ(rt3.partitioning("scale"), Partitioning::even(3));
}

TEST(Repartition, FreeingALaunchedBufferForgetsTheLaunch) {
  // repartition() migrates the write footprint of the kernel's last launch.
  // Freeing a buffer that launch used forgets it, so there is no footprint
  // left to migrate; freeing an unrelated buffer does not.
  ir::Module mod = buildWorkload();
  const std::vector<double> input = makeInput();
  auto footprintAfterFree = [&](bool freeOutput) {
    Runtime rt(baseConfig(4), analysis::analyzeModule(mod), mod);
    VirtualBuffer* in = rt.malloc(kN * 8);
    VirtualBuffer* out = rt.malloc(kN * 8);
    VirtualBuffer* other = rt.malloc(kN * 8);
    rt.memcpy(in, input.data(), kN * 8, MemcpyKind::HostToDevice);
    LaunchArg args[] = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(in),
                        LaunchArg::ofBuffer(out)};
    rt.launch("scale", {kN / 64, 1, 1}, {64, 1, 1}, args);
    rt.free(freeOutput ? out : other);
    return rt.repartition("scale", Partitioning{{2, 1, 1, 2}}).bytesFootprint;
  };
  EXPECT_EQ(footprintAfterFree(/*freeOutput=*/true), 0);
  EXPECT_GT(footprintAfterFree(/*freeOutput=*/false), 0);
}

TEST(Repartition, EvenWeightsReproduceTheSeedSplit) {
  ir::Module mod = buildWorkload();
  analysis::ApplicationModel model = analysis::analyzeModule(mod);
  Runtime rt(baseConfig(3), model, mod);
  const analysis::KernelModel* km = nullptr;
  for (const analysis::KernelModel& k : model.kernels)
    if (k.kernel == "scale") km = &k;
  ASSERT_NE(km, nullptr);
  const ir::Dim3 grid{8, 1, 1};
  for (int g = 0; g < 3; ++g) {
    ir::GridPartition p = rt.partitionFor(*km, grid, g);
    // The paper's arithmetic: [extent * g / n, extent * (g+1) / n).
    EXPECT_EQ(p.lo.x, 8 * g / 3);
    EXPECT_EQ(p.hi.x, 8 * (g + 1) / 3);
  }
  // Weight 0 gives an empty partition (elasticity).
  ASSERT_NO_THROW(rt.repartition("scale", Partitioning{{1, 0, 1}}));
  EXPECT_EQ(rt.partitionFor(*km, grid, 1).blockCount(), 0);
}

TEST(Repartition, NoOpAndPreLaunchTransitionsMoveNothing) {
  ir::Module mod = buildWorkload();
  Runtime rt(baseConfig(4), analysis::analyzeModule(mod), mod);
  // Same weights: no-op, not even counted.
  RepartitionResult r = rt.repartition("scale", Partitioning::even(4));
  EXPECT_EQ(r.bytesMoved, 0);
  EXPECT_EQ(rt.stats().repartitions, 0);
  // Changed weights before any launch: counted, but there is no recorded
  // footprint to migrate.
  r = rt.repartition("scale", Partitioning{{2, 1, 1, 2}});
  EXPECT_EQ(r.bytesMoved, 0);
  EXPECT_EQ(r.copies, 0);
  EXPECT_EQ(rt.stats().repartitions, 1);
  EXPECT_EQ(rt.partitioning("scale"), (Partitioning{{2, 1, 1, 2}}));
}

// --------------------------------------------------------------------------
// Minimality: the transition is the footprint difference, not the footprint.

TEST(Repartition, TransitionMovesOnlyTheFootprintDifference) {
  ir::Module mod = buildWorkload();
  RuntimeConfig rc = baseConfig(4);
  Runtime rt(rc, analysis::analyzeModule(mod), mod);
  const i64 bytes = kN * 8;
  std::vector<double> in = makeInput();
  VirtualBuffer* vin = rt.malloc(bytes);
  VirtualBuffer* vout = rt.malloc(bytes);
  rt.memcpy(vin, in.data(), bytes, MemcpyKind::HostToDevice);

  const ir::Dim3 grid{kN / 64, 1, 1}, block{64, 1, 1};
  std::vector<LaunchArg> args = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vin),
                                 LaunchArg::ofBuffer(vout)};
  rt.launch("scale", grid, block, args);

  // Even over 4 GPUs: device d owns elements [128d, 128d+128) of `out`.
  // Weights {3,1,1,3} (total 8) give block ranges [0,3) [3,4) [4,5) [5,8),
  // i.e. elements [0,192) [192,256) [256,320) [320,512).  New-minus-old:
  //   d0 gains [128,192) from d1, d3 gains [320,384) from d2 — 128 elements
  //   = 1024 bytes in 2 copies, against a 512-element (4096-byte) footprint.
  const i64 p2pBefore = rt.machineStats().bytesPeerToPeer;
  RepartitionResult r = rt.repartition("scale", Partitioning{{3, 1, 1, 3}});
  EXPECT_EQ(r.bytesMoved, 128 * 8);
  EXPECT_EQ(r.copies, 2);
  EXPECT_EQ(r.bytesFootprint, kN * 8);
  EXPECT_LT(r.bytesMoved, r.bytesFootprint);  // the minimality guarantee
  // The simulator counts *modeled* bytes (bytesPerElement-wide elements over
  // the 8-byte functional storage), so scale the storage bytes accordingly.
  EXPECT_EQ(rt.machineStats().bytesPeerToPeer - p2pBefore,
            static_cast<double>(r.bytesMoved) * rc.machine.bytesPerElement /
                8.0);
  EXPECT_EQ(rt.stats().bytesRepartitioned, r.bytesMoved);
  EXPECT_EQ(rt.stats().repartitionCopies, r.copies);

  // The migrated layout is live: the next launch under the new weights
  // produces reference results, and `out` ownership follows the new split.
  rt.launch("scale", grid, block, args);
  std::vector<double> got(kN), expect(kN);
  rt.memcpy(got.data(), vout, bytes, MemcpyKind::DeviceToHost);
  refScale(in, expect);
  EXPECT_EQ(got, expect);
  EXPECT_EQ(vout->tracker().ownerAt(0), 0);
  EXPECT_EQ(vout->tracker().ownerAt(200 * 8), 1);
  EXPECT_EQ(vout->tracker().ownerAt(300 * 8), 2);
  EXPECT_EQ(vout->tracker().ownerAt(kN * 8 - 1), 3);
}

// --------------------------------------------------------------------------
// Byte-identity sweep.

struct Snapshot {
  std::vector<double> out;
  RuntimeStats rstats;  // meta-counters zeroed
  i64 h2d = 0, d2h = 0;
};

/// Runs iterations of scale/stencil ping-pong with repartitions mid-run:
/// even -> {3,1,1,3} after iteration 1, load-shift {1,2,2,1} after 3.
Snapshot runTransitionWorkload(RuntimeConfig rc,
                               const analysis::ApplicationModel& model,
                               const ir::Module& mod) {
  const i64 bytes = kN * 8;
  Runtime rt(rc, model, mod);
  std::vector<double> in = makeInput();
  VirtualBuffer* va = rt.malloc(bytes);
  VirtualBuffer* vb = rt.malloc(bytes);
  rt.memcpy(va, in.data(), bytes, MemcpyKind::HostToDevice);

  const ir::Dim3 grid{kN / 64, 1, 1}, block{64, 1, 1};
  VirtualBuffer* src = va;
  VirtualBuffer* dst = vb;
  for (int it = 0; it < 6; ++it) {
    std::vector<LaunchArg> args = {LaunchArg::ofInt(kN),
                                   LaunchArg::ofBuffer(src),
                                   LaunchArg::ofBuffer(dst)};
    rt.launch(it % 2 == 0 ? "scale" : "stencil", grid, block, args);
    std::swap(src, dst);
    if (it == 1) rt.repartitionAll(Partitioning{{3, 1, 1, 3}});
    if (it == 3) rt.repartitionAll(Partitioning{{1, 2, 2, 1}});
  }
  rt.deviceSynchronize();

  Snapshot snap;
  snap.out.resize(kN);
  rt.memcpy(snap.out.data(), src, bytes, MemcpyKind::DeviceToHost);
  snap.rstats = rt.stats().deterministic();
  snap.h2d = rt.machineStats().bytesHostToDevice;
  snap.d2h = rt.machineStats().bytesDeviceToHost;
  return snap;
}

TEST(RepartitionEquivalence, TransitionsAreByteIdenticalAcrossAllKnobs) {
  ir::Module mod = buildWorkload();
  analysis::ApplicationModel model = analysis::analyzeModule(mod);

  // CPU reference for the 6-iteration ping-pong.
  std::vector<double> a = makeInput(), b(kN, 0.0);
  for (int it = 0; it < 6; ++it) {
    if (it % 2 == 0)
      refScale(a, b);
    else
      refStencil(a, b);
    std::swap(a, b);
  }

  using Key = std::tuple<bool, bool>;  // sched, cache
  std::map<Key, Snapshot> snaps;
  for (bool sched : {false, true})
    for (bool cache : {true, false}) {
      RuntimeConfig rc = baseConfig(4);
      rc.transferScheduling = sched;
      rc.enableEnumerationCache = cache;
      Snapshot snap = runTransitionWorkload(rc, model, mod);
      // Full stats determinism at fixed data-movement knobs.
      EXPECT_EQ(runTransitionWorkload(rc, model, mod).rstats, snap.rstats)
          << "sched=" << sched << " cache=" << cache;
      snaps.emplace(Key{sched, cache}, std::move(snap));
    }

  const Snapshot& ref = snaps.at(Key{false, true});
  for (const auto& [key, snap] : snaps) {
    const auto& [sched, cache] = key;
    SCOPED_TRACE("sched=" + std::to_string(sched) + " cache=" +
                 std::to_string(cache));
    EXPECT_EQ(snap.out, a) << "diverged from the CPU reference";
    EXPECT_EQ(snap.h2d, ref.h2d);
    EXPECT_EQ(snap.d2h, ref.d2h);
    EXPECT_GT(snap.rstats.repartitions, 0);
  }
}

// --------------------------------------------------------------------------
// Elasticity: growing and shrinking the active device set mid-run.

TEST(Repartition, ElasticShrinkAndGrowKeepsResultsExact) {
  ir::Module mod = buildWorkload();
  Runtime rt(baseConfig(4), analysis::analyzeModule(mod), mod);
  const i64 bytes = kN * 8;
  std::vector<double> in = makeInput();
  VirtualBuffer* va = rt.malloc(bytes);
  VirtualBuffer* vb = rt.malloc(bytes);
  rt.memcpy(va, in.data(), bytes, MemcpyKind::HostToDevice);

  const ir::Dim3 grid{kN / 64, 1, 1}, block{64, 1, 1};
  VirtualBuffer* src = va;
  VirtualBuffer* dst = vb;
  const std::vector<Partitioning> phases = {
      Partitioning::even(4),          // all four devices
      Partitioning{{1, 1, 0, 0}},     // shrink to two
      Partitioning{{1, 1, 1, 1}},     // grow back to four
      Partitioning{{0, 2, 1, 0}},     // shrink to the middle pair, skewed
  };
  std::vector<double> expect = in, tmp(kN, 0.0);
  for (std::size_t ph = 0; ph < phases.size(); ++ph) {
    if (ph > 0) rt.repartitionAll(phases[ph]);
    for (int it = 0; it < 2; ++it) {
      std::vector<LaunchArg> args = {LaunchArg::ofInt(kN),
                                     LaunchArg::ofBuffer(src),
                                     LaunchArg::ofBuffer(dst)};
      rt.launch("scale", grid, block, args);
      std::swap(src, dst);
      refScale(expect, tmp);
      std::swap(expect, tmp);
    }
  }
  rt.deviceSynchronize();
  std::vector<double> got(kN);
  rt.memcpy(got.data(), src, bytes, MemcpyKind::DeviceToHost);
  EXPECT_EQ(got, expect);
  // During the last phase only devices 1 and 2 computed: the final output
  // buffer's owners are drawn from {1, 2}.
  src->tracker().query(0, bytes, [&](i64, i64, Owner o, u64) {
    EXPECT_TRUE(o == 1 || o == 2) << "owner " << o;
  });
}

// --------------------------------------------------------------------------
// Load rebalancing on a heterogeneous machine.

TEST(Repartition, LoadBalancedPartitioningShiftsWorkOffTheSlowDevice) {
  RuntimeConfig rc = baseConfig(4);
  // Compute-bound regime (kernel time far above launch latency), with
  // device 0 sustaining a quarter of the FLOP/s of its peers.
  rc.machine.device.flops = 1e5;
  rc.machine.perDevice.assign(4, rc.machine.device);
  rc.machine.perDevice[0].flops = rc.machine.device.flops / 4;
  ir::Module mod = buildWorkload();
  Runtime rt(rc, analysis::analyzeModule(mod), mod);

  // No measured load yet: the policy refuses to guess.
  EXPECT_EQ(rt.loadBalancedPartitioning("scale"), Partitioning::even(4));

  const i64 bytes = kN * 8;
  std::vector<double> in = makeInput();
  VirtualBuffer* vin = rt.malloc(bytes);
  VirtualBuffer* vout = rt.malloc(bytes);
  rt.memcpy(vin, in.data(), bytes, MemcpyKind::HostToDevice);
  std::vector<LaunchArg> args = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vin),
                                 LaunchArg::ofBuffer(vout)};
  const ir::Dim3 grid{kN / 64, 1, 1}, block{64, 1, 1};
  rt.launch("scale", grid, block, args);

  Partitioning bal = rt.loadBalancedPartitioning("scale");
  // The slow device's share shrinks relative to every fast peer's, and the
  // fast peers stay balanced among themselves.
  EXPECT_LT(bal.weights[0], bal.weights[1]);
  EXPECT_EQ(bal.weights[1], bal.weights[2]);
  EXPECT_EQ(bal.weights[2], bal.weights[3]);
  EXPECT_GE(bal.weights[0], 1);  // active devices never drop to zero

  // Rebalancing improves the modeled end-to-end time of the next launch.
  RepartitionResult r = rt.repartition("scale", bal);
  EXPECT_GT(r.bytesMoved, 0);
  double t0 = rt.elapsedSeconds();
  rt.launch("scale", grid, block, args);
  rt.deviceSynchronize();
  double balanced = rt.elapsedSeconds() - t0;

  // Compare with a fresh even-split run of the same launch.
  Runtime even(rc, analysis::analyzeModule(mod), mod);
  VirtualBuffer* evin = even.malloc(bytes);
  VirtualBuffer* evout = even.malloc(bytes);
  even.memcpy(evin, in.data(), bytes, MemcpyKind::HostToDevice);
  std::vector<LaunchArg> eargs = {LaunchArg::ofInt(kN),
                                  LaunchArg::ofBuffer(evin),
                                  LaunchArg::ofBuffer(evout)};
  even.launch("scale", grid, block, eargs);  // warm-up, mirrors the first run
  double e0 = even.elapsedSeconds();
  even.launch("scale", grid, block, eargs);
  even.deviceSynchronize();
  double evenTime = even.elapsedSeconds() - e0;
  EXPECT_LT(balanced, evenTime);

  std::vector<double> got(kN), expect(kN);
  rt.memcpy(got.data(), vout, bytes, MemcpyKind::DeviceToHost);
  refScale(in, expect);
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace polypart::rt
