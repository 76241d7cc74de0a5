// Transfer scheduler tests (rt/transfer_plan.h; DESIGN.md "Transfer plan").
//
// Two layers:
//   1. Unit tests drive a TransferPlan by hand and check the scheduling
//      primitives — same-link range merging, binomial broadcast chaining,
//      wave/parent consistency — on known inputs.
//   2. An equivalence sweep runs a real two-kernel workload through the
//      runtime across transferScheduling x enumeration cache x
//      trackSharedCopies and asserts the scheduler's
//      core contract: scheduling changes *how* bytes move, never which
//      bytes land where.  Functional outputs, tracker dumps, and
//      host-transfer byte counters must be identical; bytesPeerToPeer may
//      only shrink.

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "analysis/analyze.h"
#include "ir/builder.h"
#include "rt/runtime.h"
#include "rt/transfer_plan.h"

namespace polypart::rt {
namespace {

using ir::fconst;
using ir::ge;
using ir::iconst;
using ir::land;
using ir::le;
using ir::lt;

// --------------------------------------------------------------------------
// Unit tests on hand-built plans.
//
// VirtualBuffers only come from a Runtime, so a tiny kernel-less runtime
// supplies them (and the machine the plans issue into).

class TransferPlanUnit : public ::testing::Test {
 protected:
  TransferPlanUnit() {
    RuntimeConfig rc;
    rc.numGpus = 4;
    rc.machine = sim::MachineSpec::k80Node(4);
    rt_ = std::make_unique<Runtime>(rc, analysis::ApplicationModel{},
                                    ir::Module{});
    vb_ = rt_->malloc(4096);
    other_ = rt_->malloc(4096);
  }

  std::unique_ptr<Runtime> rt_;
  VirtualBuffer* vb_ = nullptr;
  VirtualBuffer* other_ = nullptr;
};

TEST_F(TransferPlanUnit, MergesAdjacentAndOverlappingSameLinkRanges) {
  TransferPlan plan;
  plan.add(vb_, 1, 0, 0, 100);
  plan.add(vb_, 1, 0, 100, 200);  // adjacent: merges
  plan.add(vb_, 1, 0, 150, 300);  // overlapping: merges, 50 bytes deduped
  const auto& sched = plan.schedule();
  ASSERT_EQ(sched.size(), 1u);
  EXPECT_EQ(sched[0].begin, 0);
  EXPECT_EQ(sched[0].end, 300);
  EXPECT_EQ(sched[0].src, 0);
  EXPECT_EQ(sched[0].dst, 1);

  const TransferPlanStats& st = plan.issue(rt_->machine(), nullptr);
  EXPECT_EQ(st.recorded, 3);
  EXPECT_EQ(st.issued, 1);
  EXPECT_EQ(st.merged, 2);
  // 100+100+150 bytes recorded, 300 issued: the overlap [150, 200) is the
  // only span recorded twice.
  EXPECT_EQ(st.bytesSaved, 50);
}

TEST_F(TransferPlanUnit, DistinctLinksAndBuffersNeverMerge) {
  TransferPlan plan;
  plan.add(vb_, 1, 0, 0, 100);
  plan.add(vb_, 2, 0, 100, 200);    // different destination
  plan.add(vb_, 1, 3, 200, 300);    // different source
  plan.add(other_, 1, 0, 300, 400);  // different buffer
  EXPECT_EQ(plan.schedule().size(), 4u);
  const TransferPlanStats& st = plan.issue(rt_->machine(), nullptr);
  EXPECT_EQ(st.merged, 0);
  EXPECT_EQ(st.bytesSaved, 0);
}

TEST_F(TransferPlanUnit, ChainsOneToManyReadsThroughFreshReplicas) {
  TransferPlan plan(/*chainBroadcasts=*/true);
  plan.add(vb_, 1, 0, 0, 256);
  plan.add(vb_, 2, 0, 0, 256);
  plan.add(vb_, 3, 0, 0, 256);
  const auto& sched = plan.schedule();
  ASSERT_EQ(sched.size(), 3u);
  int fromOwner = 0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const ScheduledTransfer& t = sched[i];
    EXPECT_EQ(t.begin, 0);
    EXPECT_EQ(t.end, 256);
    if (t.parent < 0) {
      EXPECT_EQ(t.src, 0);
      EXPECT_EQ(t.wave, 0);
      ++fromOwner;
    } else {
      // Chained: sources from an earlier copy's destination, strictly after
      // that copy in issue order and one wave deeper.
      ASSERT_LT(static_cast<std::size_t>(t.parent), i);
      EXPECT_EQ(t.src, sched[static_cast<std::size_t>(t.parent)].dst);
      EXPECT_EQ(t.wave, sched[static_cast<std::size_t>(t.parent)].wave + 1);
    }
  }
  // Binomial fan-out over {owner, 3 replicas}: the owner seeds destinations
  // 1 and 2 while the first replica serves destination 3 concurrently.
  EXPECT_EQ(fromOwner, 2);
  const TransferPlanStats& st = plan.issue(rt_->machine(), nullptr);
  EXPECT_EQ(st.issued, 3);
  EXPECT_EQ(st.chains, 1);
}

TEST_F(TransferPlanUnit, BalancedAllToAllIsLeftDirect) {
  // Chaining enabled, but every device sends as much as it receives (the
  // matmul panel-exchange shape): the oversubscription gate keeps every
  // copy direct, where a forced chain would only add replica dependencies.
  TransferPlan plan(/*chainBroadcasts=*/true);
  for (int src = 0; src < 4; ++src)
    for (int dst = 0; dst < 4; ++dst)
      if (src != dst) plan.add(vb_, dst, src, src * 256, src * 256 + 256);
  const auto& sched = plan.schedule();
  ASSERT_EQ(sched.size(), 12u);
  for (const ScheduledTransfer& t : sched) EXPECT_EQ(t.parent, -1);
  EXPECT_EQ(plan.issue(rt_->machine(), nullptr).chains, 0);
}

TEST_F(TransferPlanUnit, ChainingOffPullsEverythingFromTheOwner) {
  TransferPlan plan;  // chainBroadcasts off
  plan.add(vb_, 1, 0, 0, 256);
  plan.add(vb_, 2, 0, 0, 256);
  plan.add(vb_, 3, 0, 0, 256);
  for (const ScheduledTransfer& t : plan.schedule()) {
    EXPECT_EQ(t.src, 0);
    EXPECT_EQ(t.parent, -1);
  }
  EXPECT_EQ(plan.issue(rt_->machine(), nullptr).chains, 0);
}

// --------------------------------------------------------------------------
// Runtime equivalence sweep.

/// Two kernels with cross-partition reads: a multi-offset stencil (halo
/// exchange between neighbouring partitions) and a broadcast consumer where
/// every GPU reads the same few elements of `w` (the one-to-many pattern
/// chaining targets).
ir::Module buildWorkload() {
  ir::Module mod;
  {
    ir::KernelBuilder b("stencil");
    auto n = b.scalar("n", ir::Type::I64);
    auto in = b.array("in", ir::Type::F64, {n});
    auto out = b.array("out", ir::Type::F64, {n});
    auto x = b.let("x", b.globalId(ir::Axis::X));
    b.iff(lt(x, n), [&] {
      b.iff(
          land(ge(x, iconst(2)), le(x, n - iconst(3))),
          [&] {
            auto acc = b.let("acc", b.load(in, x - iconst(2)));
            b.assign(acc, acc + b.load(in, x - iconst(1)));
            b.assign(acc, acc + b.load(in, x + iconst(2)));
            b.store(out, x, acc);
          },
          [&] { b.store(out, x, fconst(-3.0)); });
    });
    mod.addKernel(b.build());
  }
  {
    // Two input arguments launched with the *same* virtual buffer: their
    // halo reads overlap by one element, so every right-hand boundary yields
    // two overlapping transfer decisions for one (buffer, src, dst) link —
    // the overlap the plan's range merging deduplicates.  (A single
    // enumerator can never produce this: enumerate() sorts and merges its
    // own ranges before emitting.)
    ir::KernelBuilder b("alias");
    auto n = b.scalar("n", ir::Type::I64);
    auto in0 = b.array("in0", ir::Type::F64, {n});
    auto in1 = b.array("in1", ir::Type::F64, {n});
    auto out = b.array("out", ir::Type::F64, {n});
    auto x = b.let("x", b.globalId(ir::Axis::X));
    b.iff(lt(x, n), [&] {
      b.iff(
          land(ge(x, iconst(2)), le(x, n - iconst(3))),
          [&] {
            auto acc = b.let("acc", b.load(in0, x + iconst(1)));
            b.assign(acc, acc + b.load(in1, x + iconst(2)));
            b.store(out, x, acc);
          },
          [&] { b.store(out, x, fconst(-7.0)); });
    });
    mod.addKernel(b.build());
  }
  {
    ir::KernelBuilder b("bcast");
    auto n = b.scalar("n", ir::Type::I64);
    auto in = b.array("in", ir::Type::F64, {n});
    auto w = b.array("w", ir::Type::F64, {n});
    auto out = b.array("out", ir::Type::F64, {n});
    auto x = b.let("x", b.globalId(ir::Axis::X));
    b.iff(lt(x, n), [&] {
      auto acc = b.let("acc", b.load(in, x));
      b.forLoop("k", iconst(0), iconst(3),
                [&](ir::ExprPtr k) { b.assign(acc, acc + b.load(w, k)); });
      b.store(out, x, acc);
    });
    mod.addKernel(b.build());
  }
  return mod;
}

constexpr i64 kN = 512;

struct TrackerRun {
  i64 begin, end;
  Owner owner;
  u64 sharers;
  bool operator==(const TrackerRun&) const = default;
};

struct Snapshot {
  std::vector<double> stencilOut;
  std::vector<double> aliasOut;
  std::vector<double> bcastOut;
  std::vector<std::vector<TrackerRun>> dumps;  // one per buffer
  RuntimeStats rstats;       // meta-counters zeroed
  sim::MachineStats mstats;
  double elapsed = 0;
};

std::vector<TrackerRun> dump(const VirtualBuffer* vb) {
  std::vector<TrackerRun> out;
  vb->tracker().query(0, vb->bytes(), [&](i64 b, i64 e, Owner o, u64 s) {
    out.push_back(TrackerRun{b, e, o, s});
  });
  return out;
}

Snapshot runWorkload(RuntimeConfig rc, const analysis::ApplicationModel& model,
                     const ir::Module& mod) {
  const i64 bytes = kN * 8;
  Runtime rt(rc, model, mod);
  std::vector<double> in(kN), w(kN);
  for (i64 i = 0; i < kN; ++i) {
    in[static_cast<std::size_t>(i)] = static_cast<double>(i % 37) * 0.5 - 3;
    w[static_cast<std::size_t>(i)] = static_cast<double>(i % 11) * 0.25;
  }
  VirtualBuffer* vin = rt.malloc(bytes);
  VirtualBuffer* vw = rt.malloc(bytes);
  VirtualBuffer* vs = rt.malloc(bytes);
  VirtualBuffer* va = rt.malloc(bytes);
  VirtualBuffer* vb = rt.malloc(bytes);
  rt.memcpy(vin, in.data(), bytes, MemcpyKind::HostToDevice);
  rt.memcpy(vw, w.data(), bytes, MemcpyKind::HostToDevice);

  ir::Dim3 grid{kN / 64, 1, 1}, block{64, 1, 1};
  std::vector<LaunchArg> sArgs = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vin),
                                  LaunchArg::ofBuffer(vs)};
  // Both alias inputs are the same buffer (see buildWorkload).
  std::vector<LaunchArg> aArgs = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vin),
                                  LaunchArg::ofBuffer(vin),
                                  LaunchArg::ofBuffer(va)};
  std::vector<LaunchArg> bArgs = {LaunchArg::ofInt(kN), LaunchArg::ofBuffer(vin),
                                  LaunchArg::ofBuffer(vw),
                                  LaunchArg::ofBuffer(vb)};
  // Launch twice each: the second round exercises cache replay and
  // already-synchronized trackers.
  for (int round = 0; round < 2; ++round) {
    rt.launch("stencil", grid, block, sArgs);
    rt.launch("alias", grid, block, aArgs);
    rt.launch("bcast", grid, block, bArgs);
  }
  rt.deviceSynchronize();

  Snapshot snap;
  snap.stencilOut.resize(kN);
  snap.aliasOut.resize(kN);
  snap.bcastOut.resize(kN);
  rt.memcpy(snap.stencilOut.data(), vs, bytes, MemcpyKind::DeviceToHost);
  rt.memcpy(snap.aliasOut.data(), va, bytes, MemcpyKind::DeviceToHost);
  rt.memcpy(snap.bcastOut.data(), vb, bytes, MemcpyKind::DeviceToHost);
  for (const VirtualBuffer* v : {vin, vw, vs, va, vb})
    snap.dumps.push_back(dump(v));
  snap.rstats = rt.stats();
  snap.mstats = rt.machineStats();
  snap.elapsed = rt.elapsedSeconds();
  return snap;
}

TEST(TransferPlanEquivalence, SchedulingNeverChangesWhereBytesLand) {
  ir::Module mod = buildWorkload();
  analysis::ApplicationModel model = analysis::analyzeModule(mod);

  // planning, sched, cache, shared
  using Key = std::tuple<bool, bool, bool, bool>;
  std::map<Key, Snapshot> snaps;
  for (bool planning : {false, true})
    for (bool sched : {false, true})
      for (bool cache : {true, false})
        for (bool shared : {false, true}) {
          RuntimeConfig rc;
          rc.numGpus = 4;
          rc.machine = sim::MachineSpec::k80Node(4);
          rc.dataflowPlanning = planning;
          rc.transferScheduling = sched;
          rc.enableEnumerationCache = cache;
          rc.trackSharedCopies = shared;
          snaps.emplace(Key{planning, sched, cache, shared},
                        runWorkload(rc, model, mod));
        }

  for (const auto& [key, snap] : snaps) {
    const auto& [planning, sched, cache, shared] = key;
    SCOPED_TRACE("planning=" + std::to_string(planning) + " sched=" +
                 std::to_string(sched) + " cache=" + std::to_string(cache) +
                 " shared=" + std::to_string(shared));
    // Reference: paper behaviour with the same shared-copy setting.
    const Snapshot& ref = snaps.at(Key{false, false, true, shared});
    EXPECT_EQ(snap.stencilOut, ref.stencilOut);
    EXPECT_EQ(snap.aliasOut, ref.aliasOut);
    EXPECT_EQ(snap.bcastOut, ref.bcastOut);
    EXPECT_EQ(snap.dumps, ref.dumps) << "tracker state diverged";
    EXPECT_EQ(snap.mstats.bytesHostToDevice, ref.mstats.bytesHostToDevice);
    EXPECT_EQ(snap.mstats.bytesDeviceToHost, ref.mstats.bytesDeviceToHost);
    EXPECT_LE(snap.mstats.bytesPeerToPeer, ref.mstats.bytesPeerToPeer);

    if (!sched) {
      EXPECT_EQ(snap.rstats.transfersMerged, 0);
      EXPECT_EQ(snap.rstats.broadcastChains, 0);
      EXPECT_EQ(snap.rstats.bytesSavedByDedup, 0);
    }
  }

  // The broadcast workload gives the scheduler actual one-to-many reads:
  // with sharer bookkeeping available, scheduling must chain some of them.
  EXPECT_GT(snaps.at(Key{false, true, true, true}).rstats.broadcastChains, 0);
  // The launch cycle repeats, so every planning run compiles it.
  for (const auto& [key, snap] : snaps)
    EXPECT_EQ(snap.rstats.planActivations > 0, std::get<0>(key));
}

TEST(TransferPlanEquivalence, MergingDedupsOverlappingReads) {
  // The paper's per-row enumeration scheme (coalescing off) emits the
  // stencil's offset disjuncts as separate overlapping ranges; without
  // shared-copy tracking the unscheduled runtime re-copies the overlap,
  // while the plan merges it away.
  ir::Module mod = buildWorkload();
  analysis::ApplicationModel model = analysis::analyzeModule(mod);

  Snapshot off, on;
  for (bool sched : {false, true}) {
    RuntimeConfig rc;
    rc.numGpus = 4;
    rc.machine = sim::MachineSpec::k80Node(4);
    rc.transferScheduling = sched;
    rc.coalesceEnumerators = false;
    rc.trackSharedCopies = false;
    rc.enableEnumerationCache = false;
    (sched ? on : off) = runWorkload(rc, model, mod);
  }
  EXPECT_EQ(on.stencilOut, off.stencilOut);
  EXPECT_EQ(on.aliasOut, off.aliasOut);
  EXPECT_EQ(on.bcastOut, off.bcastOut);
  EXPECT_EQ(on.dumps, off.dumps);
  EXPECT_GT(on.rstats.bytesSavedByDedup, 0);
  EXPECT_LT(on.rstats.peerCopies, off.rstats.peerCopies);
  EXPECT_LT(on.mstats.bytesPeerToPeer, off.mstats.bytesPeerToPeer);
  // Fewer copies and fewer redundant bytes must not slow the modeled
  // timeline down.
  EXPECT_LE(on.elapsed, off.elapsed);
}

}  // namespace
}  // namespace polypart::rt
