// Equivalence tests for the launch-plan enumeration cache
// (rt::RuntimeConfig::enableEnumerationCache): only the pure enumeration is
// memoized — tracker queries, transfer decisions, and tracker updates stay
// live — so repeated launches must produce byte-identical buffers and
// identical resolution/transfer statistics with the cache on or off.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "apps/reference.h"
#include "ir/builder.h"
#include "rt/runtime.h"
#include "support/rng.h"

namespace polypart::rt {
namespace {

using analysis::ApplicationModel;

RuntimeConfig cacheCfg(int gpus, bool cache) {
  RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::Functional;
  cfg.enableEnumerationCache = cache;
  return cfg;
}

TEST(EnumCache, HotspotRepeatedLaunchesAreBitIdentical) {
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel model = analysis::analyzeModule(mod);
  // n = 64 gives a 4x4 grid: every GPU count below yields a non-empty
  // partition per device, so the first launch misses exactly `gpus` times.
  const i64 n = 64;
  const int iters = 9;
  Rng rng(31);
  std::vector<double> init(static_cast<std::size_t>(n * n));
  std::vector<double> power(static_cast<std::size_t>(n * n));
  for (auto& v : init) v = rng.uniform() * 100.0;
  for (auto& v : power) v = rng.uniform();

  for (int gpus : {1, 3, 4}) {
    auto run = [&](bool cache) {
      Runtime rt(cacheCfg(gpus, cache), model, mod);
      std::vector<double> temp = init;
      apps::runHotspot(rt, n, iters, temp.data(), power.data());
      return std::make_pair(temp, rt.stats());
    };
    auto [tempOff, statsOff] = run(false);
    auto [tempOn, statsOn] = run(true);
    EXPECT_EQ(tempOn, tempOff) << gpus << " GPUs";
    // The replayed plans feed the trackers the same ranges the live
    // enumeration would, so the resolution and transfer counters agree.
    EXPECT_EQ(statsOn.peerCopies, statsOff.peerCopies) << gpus;
    EXPECT_EQ(statsOn.rangesResolved, statsOff.rangesResolved) << gpus;
    EXPECT_EQ(statsOn.logicalRowsResolved, statsOff.logicalRowsResolved) << gpus;
    EXPECT_EQ(statsOff.enumCacheHits, 0);
    EXPECT_EQ(statsOff.enumCacheMisses, 0);
    EXPECT_GT(statsOn.enumCacheHits, 0) << gpus;
    EXPECT_GT(statsOn.enumCacheMisses, 0) << gpus;
    // The iterative ping-pong relaunches one configuration: after the first
    // launch materializes a plan per partition, everything is a hit.
    EXPECT_EQ(statsOn.enumCacheMisses, gpus) << gpus;
    EXPECT_EQ(statsOn.enumCacheEvictions, 0) << gpus;
  }
}

TEST(EnumCache, MatmulMatchesReferenceWithCache) {
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel model = analysis::analyzeModule(mod);
  const i64 n = 32;
  Rng rng(5);
  std::vector<double> a(static_cast<std::size_t>(n * n));
  std::vector<double> b(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = rng.uniform();
  for (auto& v : b) v = rng.uniform();
  std::vector<double> expect(static_cast<std::size_t>(n * n));
  apps::refMatmul(n, a, b, expect);

  for (int gpus : {1, 3, 8}) {
    auto run = [&](bool cache) {
      Runtime rt(cacheCfg(gpus, cache), model, mod);
      std::vector<double> c(static_cast<std::size_t>(n * n), -1.0);
      apps::runMatmul(rt, n, a.data(), b.data(), c.data());
      return std::make_pair(c, rt.stats());
    };
    auto [cOff, statsOff] = run(false);
    auto [cOn, statsOn] = run(true);
    EXPECT_EQ(cOn, expect) << gpus << " GPUs";
    EXPECT_EQ(cOn, cOff) << gpus << " GPUs";
    EXPECT_EQ(statsOn.peerCopies, statsOff.peerCopies) << gpus;
    EXPECT_EQ(statsOn.rangesResolved, statsOff.rangesResolved) << gpus;
    // A one-shot launch still replays its plan in the tracker-update loop.
    EXPECT_GT(statsOn.enumCacheHits, 0) << gpus;
  }
}

TEST(EnumCache, MayWriteScatterIsUnaffectedByCache) {
  // May-access writes bypass the enumerators entirely; the static read
  // maps (idx, in) still go through the cache.
  ir::KernelBuilder kb("scatter");
  auto n = kb.scalar("n", ir::Type::I64);
  auto idx = kb.array("idx", ir::Type::I64, {n});
  auto in = kb.array("in", ir::Type::F64, {n});
  auto out = kb.array("out", ir::Type::F64, {n});
  auto i = kb.let("i", kb.globalId(ir::Axis::X));
  kb.iff(ir::lt(i, n), [&] { kb.store(out, kb.load(idx, i), kb.load(in, i)); });
  ir::Module mod;
  mod.addKernel(kb.build());
  ApplicationModel model = analysis::analyzeModule(mod);
  ASSERT_TRUE(model.kernels[0].arrayFor(3)->writeMayAccess);

  const i64 count = 512;
  Rng rng(17);
  std::vector<i64> perm(static_cast<std::size_t>(count));
  std::iota(perm.begin(), perm.end(), 0);
  for (i64 k = count - 1; k > 0; --k)
    std::swap(perm[static_cast<std::size_t>(k)],
              perm[static_cast<std::size_t>(rng.range(0, k))]);
  std::vector<double> src(static_cast<std::size_t>(count));
  for (i64 k = 0; k < count; ++k)
    src[static_cast<std::size_t>(k)] = 100.0 + static_cast<double>(k);

  for (int gpus : {1, 4}) {
    auto run = [&](bool cache) {
      Runtime rt(cacheCfg(gpus, cache), model, mod);
      VirtualBuffer* dIdx = rt.malloc(count * 8);
      VirtualBuffer* dIn = rt.malloc(count * 8);
      VirtualBuffer* dOut = rt.malloc(count * 8);
      rt.memcpy(dIdx, perm.data(), count * 8, MemcpyKind::HostToDevice);
      rt.memcpy(dIn, src.data(), count * 8, MemcpyKind::HostToDevice);
      LaunchArg args[] = {LaunchArg::ofInt(count), LaunchArg::ofBuffer(dIdx),
                          LaunchArg::ofBuffer(dIn), LaunchArg::ofBuffer(dOut)};
      // Launch twice so read plans are replayed against evolved trackers.
      rt.launch("scatter", {count / 64, 1, 1}, {64, 1, 1}, args);
      rt.launch("scatter", {count / 64, 1, 1}, {64, 1, 1}, args);
      std::vector<double> host(static_cast<std::size_t>(count), -1.0);
      rt.memcpy(host.data(), dOut, count * 8, MemcpyKind::DeviceToHost);
      return std::make_pair(host, rt.stats());
    };
    auto [outOff, statsOff] = run(false);
    auto [outOn, statsOn] = run(true);
    EXPECT_EQ(outOn, outOff) << gpus << " GPUs";
    EXPECT_EQ(statsOn.peerCopies, statsOff.peerCopies) << gpus;
    EXPECT_EQ(statsOn.rangesResolved, statsOff.rangesResolved) << gpus;
    EXPECT_GT(statsOn.enumCacheHits, 0) << gpus;
    for (i64 k = 0; k < count; ++k)
      ASSERT_EQ(outOn[static_cast<std::size_t>(perm[static_cast<std::size_t>(k)])],
                src[static_cast<std::size_t>(k)]);
  }
}

TEST(EnumCache, SharedCopyTrackingComposesWithCache) {
  // Sharer-set decisions are made against the live tracker during replay,
  // so the shared-copy extension behaves identically with the cache on.
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel model = analysis::analyzeModule(mod);
  const i64 n = 256;
  auto run = [&](bool cache) {
    RuntimeConfig cfg = cacheCfg(4, cache);
    cfg.trackSharedCopies = true;
    Runtime rt(cfg, model, mod);
    std::vector<double> px(n, 1), py(n, 2), pz(n, 3), vx(n, 0), vy(n, 0),
        vz(n, 0), mass(n, 1);
    apps::NBodyState st{px.data(), py.data(), pz.data(),
                        vx.data(), vy.data(), vz.data(), mass.data()};
    apps::runNBody(rt, n, 4, st);
    return std::make_pair(px, rt.stats());
  };
  auto [pxOff, statsOff] = run(false);
  auto [pxOn, statsOn] = run(true);
  EXPECT_EQ(pxOn, pxOff);
  EXPECT_EQ(statsOn.sharedCopyHits, statsOff.sharedCopyHits);
  EXPECT_EQ(statsOn.peerCopies, statsOff.peerCopies);
  EXPECT_GT(statsOn.sharedCopyHits, 0);
  EXPECT_GT(statsOn.enumCacheHits, 0);
}

TEST(EnumCache, BoundedCacheEvictsFifoAndStaysCorrect) {
  // 20 distinct scalar n at 4 GPUs are 80 plan keys per pass, more than the
  // 64 plans a kernel retains.  Each launch misses in read sync (inserting
  // its four plans) and hits them in the tracker update.  Two passes in the
  // same cyclic order make FIFO eviction drop every key before its reuse, so
  // every read-sync lookup misses; results must not notice.
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel model = analysis::analyzeModule(mod);
  const i64 size = 4096;
  const int distinct = 20;
  std::vector<double> x(static_cast<std::size_t>(size));
  std::vector<double> y0(static_cast<std::size_t>(size));
  for (i64 i = 0; i < size; ++i) {
    x[static_cast<std::size_t>(i)] = 0.5 * static_cast<double>(i % 13);
    y0[static_cast<std::size_t>(i)] = static_cast<double>(i % 7);
  }

  auto run = [&](bool cache) {
    Runtime rt(cacheCfg(4, cache), model, mod);
    VirtualBuffer* dx = rt.malloc(size * 8);
    VirtualBuffer* dy = rt.malloc(size * 8);
    rt.memcpy(dx, x.data(), size * 8, MemcpyKind::HostToDevice);
    rt.memcpy(dy, y0.data(), size * 8, MemcpyKind::HostToDevice);
    for (int pass = 0; pass < 2; ++pass)
      for (int k = 0; k < distinct; ++k) {
        const i64 n = size - 37 * k;
        LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(1.5),
                            LaunchArg::ofBuffer(dx), LaunchArg::ofBuffer(dy)};
        rt.launch("saxpy", {(n + 127) / 128, 1, 1}, {128, 1, 1}, args);
      }
    std::vector<double> y(static_cast<std::size_t>(size));
    rt.memcpy(y.data(), dy, size * 8, MemcpyKind::DeviceToHost);
    return std::make_pair(y, rt.stats());
  };
  auto [yOff, statsOff] = run(false);
  auto [yOn, statsOn] = run(true);
  EXPECT_EQ(yOn, yOff);
  EXPECT_EQ(statsOn.peerCopies, statsOff.peerCopies);
  EXPECT_EQ(statsOn.rangesResolved, statsOff.rangesResolved);
  EXPECT_EQ(statsOn.enumCacheMisses, 2 * distinct * 4);
  EXPECT_EQ(statsOn.enumCacheHits, 2 * distinct * 4);
  // The per-kernel bound is 64 plans: every miss past the 64th evicts one.
  EXPECT_EQ(statsOn.enumCacheEvictions, statsOn.enumCacheMisses - 64);
}

}  // namespace
}  // namespace polypart::rt
