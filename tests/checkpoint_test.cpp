// Device-failure recovery tests (rt/checkpoint.h; DESIGN.md "Elastic
// repartitioning").
//
// The headline scenario: iterate a workload, checkpoint, kill one GPU
// (sim::Machine::failDevice), recover onto the survivors, keep iterating —
// and end with exactly the CPU-reference answer.  Failure injection poisons
// the dead device's storage with NaN, so a recovery that silently read stale
// or lost data could not pass the byte-equality assertions.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/analyze.h"
#include "ir/builder.h"
#include "rt/checkpoint.h"
#include "rt/runtime.h"

namespace polypart::rt {
namespace {

using ir::fconst;
using ir::iconst;
using ir::lt;

constexpr i64 kN = 512;

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
    // Every thread also reads w[0..3]: the broadcast pattern that leaves
    // replicas on every device when shared-copy tracking is on.
    ir::KernelBuilder b("bcast");
    auto n = b.scalar("n", ir::Type::I64);
    auto in = b.array("in", ir::Type::F64, {n});
    auto w = b.array("w", ir::Type::F64, {n});
    auto out = b.array("out", ir::Type::F64, {n});
    auto x = b.let("x", b.globalId(ir::Axis::X));
    b.iff(lt(x, n), [&] {
      auto acc = b.let("acc", b.load(in, x));
      b.forLoop("k", iconst(0), iconst(4),
                [&](ir::ExprPtr k) { b.assign(acc, acc + b.load(w, k)); });
      b.store(out, x, acc);
    });
    mod.addKernel(b.build());
  }
  return mod;
}

void refScale(const std::vector<double>& in, std::vector<double>& out) {
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i] * 0.5 + 1.0;
}

std::vector<double> makeInput() {
  std::vector<double> v(kN);
  for (i64 i = 0; i < kN; ++i)
    v[static_cast<std::size_t>(i)] = static_cast<double>(i % 29) * 0.25 - 2.0;
  return v;
}

RuntimeConfig baseConfig(int gpus) {
  RuntimeConfig rc;
  rc.numGpus = gpus;
  rc.machine = sim::MachineSpec::k80Node(gpus);
  rc.allowRepartitioning = true;
  return rc;
}

TEST(Checkpoint, CoversExactlyTheExclusivelyOwnedBytes) {
  ir::Module mod = buildWorkload();
  Runtime rt(baseConfig(4), analysis::analyzeModule(mod), mod);
  const i64 bytes = kN * 8;
  std::vector<double> in = makeInput();
  VirtualBuffer* vin = rt.malloc(bytes);
  VirtualBuffer* vout = rt.malloc(bytes);  // never written: not checkpointed
  rt.memcpy(vin, in.data(), bytes, MemcpyKind::HostToDevice);

  Checkpoint cp = rt.checkpoint();
  // Only vin has defined bytes; the linear scatter made every byte exclusive
  // to one device, so the payload is exactly the buffer.
  EXPECT_EQ(cp.payloadBytes(), bytes);
  EXPECT_EQ(cp.bufferCount(), 1u);
  EXPECT_EQ(cp.segmentCount(), 4u);
  EXPECT_EQ(rt.stats().checkpoints, 1);
  EXPECT_EQ(rt.stats().bytesCheckpointed, bytes);
  (void)vout;
}

TEST(Checkpoint, KillOneGpuRecoveryProducesTheReferenceAnswer) {
  ir::Module mod = buildWorkload();
  analysis::ApplicationModel model = analysis::analyzeModule(mod);
  Runtime rt(baseConfig(4), model, mod);
  const i64 bytes = kN * 8;
  std::vector<double> in = makeInput();
  VirtualBuffer* va = rt.malloc(bytes);
  VirtualBuffer* vb = rt.malloc(bytes);
  rt.memcpy(va, in.data(), bytes, MemcpyKind::HostToDevice);

  const ir::Dim3 grid{kN / 64, 1, 1}, block{64, 1, 1};
  VirtualBuffer* src = va;
  VirtualBuffer* dst = vb;
  auto step = [&] {
    std::vector<LaunchArg> args = {LaunchArg::ofInt(kN),
                                   LaunchArg::ofBuffer(src),
                                   LaunchArg::ofBuffer(dst)};
    rt.launch("scale", grid, block, args);
    std::swap(src, dst);
  };
  std::vector<double> expect = in, tmp(kN, 0.0);
  auto refStep = [&] {
    refScale(expect, tmp);
    std::swap(expect, tmp);
  };

  for (int it = 0; it < 3; ++it) {
    step();
    refStep();
  }
  Checkpoint cp = rt.checkpoint();
  EXPECT_GT(cp.payloadBytes(), 0);

  // Device 1 dies.  Its storage is NaN-poisoned, so from here on any read of
  // unrecovered data would contaminate the result visibly.
  rt.machine().failDevice(1);
  EXPECT_EQ(rt.machine().liveDeviceCount(), 3);
  rt.recoverDevice(1, cp, Partitioning{{1, 0, 1, 1}});
  EXPECT_EQ(rt.stats().recoveries, 1);
  EXPECT_GT(rt.stats().bytesRestored, 0);
  EXPECT_GT(rt.stats().restoreCopies, 0);

  for (int it = 0; it < 3; ++it) {
    step();
    refStep();
  }
  rt.deviceSynchronize();
  std::vector<double> got(kN);
  rt.memcpy(got.data(), src, bytes, MemcpyKind::DeviceToHost);
  EXPECT_EQ(got, expect);
  for (double v : got) EXPECT_FALSE(std::isnan(v));
  // The dead device owns nothing anywhere.
  for (const VirtualBuffer* v : {va, vb})
    v->tracker().query(0, bytes,
                       [&](i64, i64, Owner o, u64) { EXPECT_NE(o, 1); });
}

TEST(Checkpoint, RecoveryAdoptsSurvivingReplicasWithoutRestoreCopies) {
  ir::Module mod = buildWorkload();
  RuntimeConfig rc = baseConfig(4);
  rc.trackSharedCopies = true;
  Runtime rt(rc, analysis::analyzeModule(mod), mod);
  const i64 bytes = kN * 8;
  std::vector<double> in = makeInput(), w(kN, 0.125);
  VirtualBuffer* vin = rt.malloc(bytes);
  VirtualBuffer* vw = rt.malloc(bytes);
  VirtualBuffer* vout = rt.malloc(bytes);
  rt.memcpy(vin, in.data(), bytes, MemcpyKind::HostToDevice);
  rt.memcpy(vw, w.data(), bytes, MemcpyKind::HostToDevice);

  const ir::Dim3 grid{kN / 64, 1, 1}, block{64, 1, 1};
  std::vector<LaunchArg> args = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vin),
                                 LaunchArg::ofBuffer(vw),
                                 LaunchArg::ofBuffer(vout)};
  // w[0..3] lives on device 0 (linear scatter) and is broadcast-read by all:
  // shared-copy tracking records replicas on devices 1..3.
  rt.launch("bcast", grid, block, args);

  Checkpoint cp = rt.checkpoint();
  rt.machine().failDevice(0);
  rt.recoverDevice(0, cp, Partitioning{{0, 1, 1, 1}});
  // The broadcast head of w was replicated: adopted, not restored.
  EXPECT_GT(rt.stats().bytesAdopted, 0);

  // Survivors still compute the right answer from the adopted bytes.
  rt.launch("bcast", grid, block, args);
  rt.deviceSynchronize();
  std::vector<double> got(kN), expect(kN);
  rt.memcpy(got.data(), vout, bytes, MemcpyKind::DeviceToHost);
  for (i64 i = 0; i < kN; ++i)
    expect[static_cast<std::size_t>(i)] =
        in[static_cast<std::size_t>(i)] + 4 * 0.125;
  EXPECT_EQ(got, expect);
}

TEST(Checkpoint, RecoveryBeyondSixtyFourDevices) {
  // Devices 64 and up have no bit in the tracker's 64-bit sharer bitmap:
  // checkpoint and recovery must treat their ranges as exclusively owned
  // (never shift by the ordinal).  4-thread blocks give every one of the 72
  // devices a partition, so device 70 owns kernel output when it dies.
  constexpr int kGpus = 72;
  constexpr int kDead = 70;
  ir::Module mod = buildWorkload();
  Runtime rt(baseConfig(kGpus), analysis::analyzeModule(mod), mod);
  const i64 bytes = kN * 8;
  std::vector<double> in = makeInput();
  VirtualBuffer* va = rt.malloc(bytes);
  VirtualBuffer* vb = rt.malloc(bytes);
  rt.memcpy(va, in.data(), bytes, MemcpyKind::HostToDevice);

  const ir::Dim3 grid{kN / 4, 1, 1}, block{4, 1, 1};
  std::vector<LaunchArg> forward = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(va),
                                    LaunchArg::ofBuffer(vb)};
  std::vector<LaunchArg> backward = {LaunchArg::ofInt(kN),
                                     LaunchArg::ofBuffer(vb),
                                     LaunchArg::ofBuffer(va)};
  rt.launch("scale", grid, block, forward);
  Checkpoint cp = rt.checkpoint();
  // Every byte of both buffers has exactly one owner.
  EXPECT_EQ(cp.payloadBytes(), 2 * bytes);

  rt.machine().failDevice(kDead);
  Partitioning next = Partitioning::even(kGpus);
  next.weights[kDead] = 0;
  rt.recoverDevice(kDead, cp, next);
  EXPECT_EQ(rt.stats().recoveries, 1);
  EXPECT_GT(rt.stats().bytesRestored, 0);

  rt.launch("scale", grid, block, backward);
  std::vector<double> got(kN), expect(kN), tmp(kN);
  rt.memcpy(got.data(), va, bytes, MemcpyKind::DeviceToHost);
  refScale(in, tmp);
  refScale(tmp, expect);
  EXPECT_EQ(got, expect);
}

TEST(Checkpoint, RecoveryWithoutCoverageThrows) {
  ir::Module mod = buildWorkload();
  Runtime rt(baseConfig(4), analysis::analyzeModule(mod), mod);
  const i64 bytes = kN * 8;
  std::vector<double> in = makeInput();
  VirtualBuffer* vin = rt.malloc(bytes);
  rt.memcpy(vin, in.data(), bytes, MemcpyKind::HostToDevice);

  rt.machine().failDevice(1);
  // Device 1 exclusively owned its quarter of vin; an empty checkpoint
  // cannot cover it.
  Checkpoint empty;
  EXPECT_THROW(rt.recoverDevice(1, empty, Partitioning{{1, 0, 1, 1}}), Error);
}

TEST(Checkpoint, RecoveryValidatesItsArguments) {
  ir::Module mod = buildWorkload();
  {
    RuntimeConfig rc = baseConfig(2);
    rc.allowRepartitioning = false;
    Runtime rt(rc, analysis::analyzeModule(mod), mod);
    Checkpoint cp;
    EXPECT_THROW(rt.recoverDevice(0, cp, Partitioning{{0, 1}}), Error);
  }
  {
    Runtime rt(baseConfig(2), analysis::analyzeModule(mod), mod);
    Checkpoint cp;
    // Healthy device: nothing to recover.
    EXPECT_THROW(rt.recoverDevice(0, cp, Partitioning{{0, 1}}), Error);
    rt.machine().failDevice(0);
    // The failed device must get weight 0.
    EXPECT_THROW(rt.recoverDevice(0, cp, Partitioning{{1, 1}}), Error);
  }
}

}  // namespace
}  // namespace polypart::rt
