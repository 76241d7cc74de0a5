// Irregular-workload battery for the may-access tier (DESIGN.md "May-access
// tier & inspector–executor").
//
// Three data-dependent kernels — CSR sparse matvec (indirect gather), BFS
// push (indirect scatter), histogram (data-dependent read-modify-write) —
// must match their CPU references bit-for-bit under BOTH runtime fallback
// modes (conservative whole-buffer sharing and the inspector–executor) for
// every engine-knob combination, the same contract sweep_test.cpp pins for
// the affine benchmarks.  On top of byte-identity:
//   - the analysis demotes exactly the irregular arguments (nothing else),
//   - the inspection walk touches exactly the accesses the kernel performs,
//   - repeated launches hit the inspection cache; writing an indirection
//     buffer between launches invalidates it (the stale-footprint bug class),
//   - the inspector moves strictly fewer peer bytes than whole-buffer
//     sharing on a banded matrix at 8+ GPUs,
//   - repartition() and checkpoint()/recoverDevice() handle may-access
//     kernels (conservatively shared writes are covered by checkpoints).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "apps/reference.h"
#include "rt/checkpoint.h"
#include "rt/runtime.h"
#include "support/rng.h"

namespace polypart::rt {
namespace {

const ir::Module& irregularModule() {
  static ir::Module m = apps::buildIrregularModule();
  return m;
}

const analysis::ApplicationModel& irregularModel() {
  static analysis::ApplicationModel m = analysis::analyzeModule(irregularModule());
  return m;
}

/// Explicit inspector flag everywhere: check.sh legitimately runs this
/// binary with POLYPART_INSPECTOR_EXECUTOR=1 exported.
RuntimeConfig irregularConfig(int gpus, bool inspector) {
  RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::Functional;
  cfg.inspectorExecutor = inspector;
  return cfg;
}

struct Csr {
  i64 n = 0;  // square: nrows == ncols
  std::vector<i64> rowPtr;
  std::vector<i64> colIdx;
  std::vector<double> vals;
  i64 nnz() const { return static_cast<i64>(colIdx.size()); }
  apps::CsrMatrix view() const {
    return apps::CsrMatrix{n, n, nnz(), rowPtr.data(), colIdx.data(),
                           vals.data()};
  }
};

/// Banded matrix: row r holds [max(0, r-band), min(n, r+band+1)).  A row
/// partition's gather footprint is its band neighbourhood — the geometry
/// where the inspector's win over whole-buffer sharing is largest.
Csr makeBandedCsr(i64 n, i64 band, Rng& rng) {
  Csr a;
  a.n = n;
  a.rowPtr.reserve(static_cast<std::size_t>(n + 1));
  a.rowPtr.push_back(0);
  for (i64 r = 0; r < n; ++r) {
    const i64 lo = std::max<i64>(0, r - band);
    const i64 hi = std::min<i64>(n, r + band + 1);
    for (i64 c = lo; c < hi; ++c) {
      a.colIdx.push_back(c);
      a.vals.push_back(rng.uniform() - 0.5);
    }
    a.rowPtr.push_back(a.nnz());
  }
  return a;
}

std::vector<double> makeVector(i64 n, Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform() * 2 - 1;
  return v;
}

// --------------------------------------------------------------------------
// Analysis contract: exactly the irregular arguments demote.

TEST(Irregular, ModelDemotesExactlyTheIrregularArgs) {
  const analysis::ApplicationModel& app = irregularModel();

  // spmv(nrows, ncols, nnz, row_ptr, col_idx, vals, x, y): only the gather
  // operand x is may-access; row_ptr stays affine, col_idx/vals become
  // inexact whole-extent reads (dynamic loop bounds), y stays an exact
  // affine write.
  const analysis::KernelModel* spmv = app.find("spmv");
  ASSERT_NE(spmv, nullptr);
  EXPECT_FALSE(spmv->arrayFor(3)->readMayAccess);  // row_ptr
  EXPECT_TRUE(spmv->arrayFor(3)->read.exact());
  EXPECT_FALSE(spmv->arrayFor(4)->readMayAccess);  // col_idx
  EXPECT_FALSE(spmv->arrayFor(4)->read.exact());
  EXPECT_FALSE(spmv->arrayFor(5)->readMayAccess);  // vals
  EXPECT_TRUE(spmv->arrayFor(6)->readMayAccess);   // x
  EXPECT_FALSE(spmv->arrayFor(6)->writeMayAccess);
  EXPECT_NE(spmv->arrayFor(6)->mayAccessWhy.find("x"), std::string::npos)
      << spmv->arrayFor(6)->mayAccessWhy;
  EXPECT_TRUE(spmv->arrayFor(7)->hasWrites());  // y
  EXPECT_FALSE(spmv->arrayFor(7)->writeMayAccess);

  // bfs_push(nfront, nnodes, nedges, front, row_ptr, col_idx, next):
  // row_ptr is indexed through the frontier (may-read, inspectable), next
  // is an indirect scatter (may-write).
  const analysis::KernelModel* bfs = app.find("bfs_push");
  ASSERT_NE(bfs, nullptr);
  EXPECT_FALSE(bfs->arrayFor(3)->readMayAccess);  // front: affine
  EXPECT_TRUE(bfs->arrayFor(3)->read.exact());
  EXPECT_TRUE(bfs->arrayFor(4)->readMayAccess);   // row_ptr
  EXPECT_FALSE(bfs->arrayFor(5)->readMayAccess);  // col_idx: clamped
  EXPECT_TRUE(bfs->arrayFor(6)->writeMayAccess);  // next
  EXPECT_FALSE(bfs->arrayFor(6)->hasWrites());

  // histogram(n, nbins, keys, hist): hist demotes on both sides (RMW).
  const analysis::KernelModel* hist = app.find("histogram");
  ASSERT_NE(hist, nullptr);
  EXPECT_FALSE(hist->arrayFor(2)->readMayAccess);  // keys: affine
  EXPECT_TRUE(hist->arrayFor(3)->readMayAccess);
  EXPECT_TRUE(hist->arrayFor(3)->writeMayAccess);
}

// --------------------------------------------------------------------------
// Differential byte-identity, both fallback modes.

class IrregularModes : public ::testing::TestWithParam<bool> {};

TEST_P(IrregularModes, SpmvMatchesCpuReference) {
  const bool inspector = GetParam();
  Rng rng(411);
  const i64 n = 300;
  Csr a = makeBandedCsr(n, 7, rng);
  std::vector<double> x = makeVector(n, rng);
  std::vector<double> expect(static_cast<std::size_t>(n));
  apps::refSpmv(a.rowPtr, a.colIdx, a.vals, x, expect);

  for (int gpus : {1, 2, 3, 4, 8}) {
    Runtime rt(irregularConfig(gpus, inspector), irregularModel(),
               irregularModule());
    std::vector<double> got(static_cast<std::size_t>(n), -9.0);
    apps::runSpmv(rt, a.view(), x.data(), got.data());
    ASSERT_EQ(got, expect) << gpus << " GPUs, inspector=" << inspector;
    EXPECT_GT(rt.stats().mayAccessLaunches, 0);
    if (inspector) {
      EXPECT_EQ(rt.stats().inspectorRuns, 1);
      // The walk touches x exactly once per nonzero.
      EXPECT_EQ(rt.stats().inspectedElements, a.nnz());
    } else {
      EXPECT_EQ(rt.stats().inspectorRuns, 0);
    }
  }
}

TEST_P(IrregularModes, BfsPushMatchesCpuReference) {
  const bool inspector = GetParam();
  Rng rng(412);
  const i64 n = 257;
  Csr g = makeBandedCsr(n, 5, rng);
  // Frontier with duplicates and out-of-order nodes.
  const i64 nfront = 61;
  std::vector<i64> front(static_cast<std::size_t>(nfront));
  for (auto& u : front) u = rng.range(0, n - 1);
  std::vector<double> expect(static_cast<std::size_t>(n), 0.0);
  apps::refBfsPush(g.rowPtr, g.colIdx, front, expect);

  for (int gpus : {1, 3, 8}) {
    Runtime rt(irregularConfig(gpus, inspector), irregularModel(),
               irregularModule());
    std::vector<double> got(static_cast<std::size_t>(n), 0.0);
    apps::runBfsPush(rt, n, g.nnz(), g.rowPtr.data(), g.colIdx.data(), nfront,
                     front.data(), got.data());
    ASSERT_EQ(got, expect) << gpus << " GPUs, inspector=" << inspector;
    if (inspector) {
      EXPECT_EQ(rt.stats().inspectorRuns, 1);
      // row_ptr is read twice per frontier thread (lo and hi).
      EXPECT_EQ(rt.stats().inspectedElements, 2 * nfront);
    }
  }
}

TEST_P(IrregularModes, HistogramMatchesCpuReference) {
  const bool inspector = GetParam();
  Rng rng(413);
  const i64 nkeys = 500;
  const i64 nbins = 37;
  std::vector<i64> keys(static_cast<std::size_t>(nkeys));
  for (auto& k : keys) k = rng.range(0, nbins - 1);
  std::vector<double> expect(static_cast<std::size_t>(nbins), 0.0);
  apps::refHistogram(keys, expect);

  for (int gpus : {1, 3, 8}) {
    Runtime rt(irregularConfig(gpus, inspector), irregularModel(),
               irregularModule());
    std::vector<double> got(static_cast<std::size_t>(nbins), 0.0);
    apps::runHistogram(rt, nkeys, nbins, keys.data(), got.data());
    ASSERT_EQ(got, expect) << gpus << " GPUs, inspector=" << inspector;
    // hist is read-modify-write: no inspectable (read-only may-access)
    // argument exists, so the inspector never runs — the serialized
    // pre-partition gather path handles it in both modes.
    EXPECT_EQ(rt.stats().inspectorRuns, 0);
    EXPECT_GT(rt.stats().mayAccessLaunches, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, IrregularModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Inspector" : "WholeBuffer";
                         });

// --------------------------------------------------------------------------
// Full knob sweep: inspectorExecutor x enumerationCache x dataflowPlanning,
// all three workloads.  Bytes compare against the CPU reference everywhere;
// the deterministic stats of each (inspector, cache, planning) cell must
// repeat exactly run over run.

TEST(Irregular, ByteIdenticalAcrossAllKnobs) {
  Rng rng(414);
  const i64 n = 193;
  Csr a = makeBandedCsr(n, 4, rng);
  std::vector<double> x = makeVector(n, rng);
  const i64 nfront = 41;
  std::vector<i64> front(static_cast<std::size_t>(nfront));
  for (auto& u : front) u = rng.range(0, n - 1);
  const i64 nkeys = 200, nbins = 23;
  std::vector<i64> keys(static_cast<std::size_t>(nkeys));
  for (auto& k : keys) k = rng.range(0, nbins - 1);

  std::vector<double> expSpmv(static_cast<std::size_t>(n));
  apps::refSpmv(a.rowPtr, a.colIdx, a.vals, x, expSpmv);
  std::vector<double> expBfs(static_cast<std::size_t>(n), 0.0);
  apps::refBfsPush(a.rowPtr, a.colIdx, front, expBfs);
  std::vector<double> expHist(static_cast<std::size_t>(nbins), 0.0);
  apps::refHistogram(keys, expHist);

  auto run = [&](bool inspector, bool cache, bool planning,
                 RuntimeStats* statsOut) {
    RuntimeConfig cfg = irregularConfig(4, inspector);
    cfg.enableEnumerationCache = cache;
    cfg.dataflowPlanning = planning;
    Runtime rt(cfg, irregularModel(), irregularModule());

    std::vector<double> gotSpmv(static_cast<std::size_t>(n), -9.0);
    apps::runSpmv(rt, a.view(), x.data(), gotSpmv.data());
    std::vector<double> gotBfs(static_cast<std::size_t>(n), 0.0);
    apps::runBfsPush(rt, n, a.nnz(), a.rowPtr.data(), a.colIdx.data(), nfront,
                     front.data(), gotBfs.data());
    std::vector<double> gotHist(static_cast<std::size_t>(nbins), 0.0);
    apps::runHistogram(rt, nkeys, nbins, keys.data(), gotHist.data());

    EXPECT_EQ(gotSpmv, expSpmv);
    EXPECT_EQ(gotBfs, expBfs);
    EXPECT_EQ(gotHist, expHist);

    *statsOut = rt.stats().deterministic();
  };

  for (bool inspector : {false, true}) {
    for (bool cache : {false, true}) {
      for (bool planning : {false, true}) {
        SCOPED_TRACE("inspector=" + std::to_string(inspector) + " cache=" +
                     std::to_string(cache) + " planning=" +
                     std::to_string(planning));
        RuntimeStats first, second;
        run(inspector, cache, planning, &first);
        run(inspector, cache, planning, &second);
        EXPECT_EQ(first.inspectorRuns > 0, inspector);
        EXPECT_EQ(second, first) << "deterministic runtime statistics vary";
      }
    }
  }
}

// --------------------------------------------------------------------------
// Inspection cache: repeat launches hit; writing an indirection buffer
// between launches invalidates (the stale-footprint bug class — a cached
// footprint from the old col_idx would leave the new gather sources stale
// on the executing devices).

TEST(Irregular, RepeatLaunchHitsInspectionCache) {
  Rng rng(415);
  const i64 n = 192;
  Csr a = makeBandedCsr(n, 3, rng);
  std::vector<double> x = makeVector(n, rng);
  std::vector<double> expect(static_cast<std::size_t>(n));
  apps::refSpmv(a.rowPtr, a.colIdx, a.vals, x, expect);

  Runtime rt(irregularConfig(4, /*inspector=*/true), irregularModel(),
             irregularModule());
  VirtualBuffer* dRow = rt.malloc((n + 1) * 8);
  VirtualBuffer* dCol = rt.malloc(a.nnz() * 8);
  VirtualBuffer* dVal = rt.malloc(a.nnz() * 8);
  VirtualBuffer* dX = rt.malloc(n * 8);
  VirtualBuffer* dY = rt.malloc(n * 8);
  rt.memcpy(dRow, a.rowPtr.data(), (n + 1) * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dCol, a.colIdx.data(), a.nnz() * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dVal, a.vals.data(), a.nnz() * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dX, x.data(), n * 8, MemcpyKind::HostToDevice);
  LaunchArg args[] = {LaunchArg::ofInt(n),        LaunchArg::ofInt(n),
                      LaunchArg::ofInt(a.nnz()),  LaunchArg::ofBuffer(dRow),
                      LaunchArg::ofBuffer(dCol),  LaunchArg::ofBuffer(dVal),
                      LaunchArg::ofBuffer(dX),    LaunchArg::ofBuffer(dY)};
  const ir::Dim3 grid{(n + 63) / 64, 1, 1}, block{64, 1, 1};

  rt.launch("spmv", grid, block, args);
  EXPECT_EQ(rt.stats().inspectorRuns, 1);
  EXPECT_EQ(rt.stats().inspectorCacheMisses, 1);
  EXPECT_EQ(rt.stats().inspectorCacheHits, 0);

  // Same geometry, same buffer contents (y is write-only: its new contents
  // cannot influence the walk): the second launch reuses the footprints.
  rt.launch("spmv", grid, block, args);
  EXPECT_EQ(rt.stats().inspectorRuns, 1);
  EXPECT_EQ(rt.stats().inspectorCacheHits, 1);
  EXPECT_EQ(rt.stats().inspectorCacheInvalidations, 0);

  std::vector<double> got(static_cast<std::size_t>(n));
  rt.memcpy(got.data(), dY, n * 8, MemcpyKind::DeviceToHost);
  EXPECT_EQ(got, expect);
}

TEST(Irregular, InspectionCacheEvictsOldestBeyondEightKeys) {
  // The inspection cache keeps 8 footprint sets per kernel, evicted FIFO.
  // Output-buffer identity is part of the key, so nine spmv launches into
  // nine y buffers are nine distinct keys: the ninth evicts the first.
  Rng rng(417);
  const i64 n = 192;
  const int keys = 9;
  Csr a = makeBandedCsr(n, 3, rng);
  std::vector<double> x = makeVector(n, rng);
  std::vector<double> expect(static_cast<std::size_t>(n));
  apps::refSpmv(a.rowPtr, a.colIdx, a.vals, x, expect);

  Runtime rt(irregularConfig(4, /*inspector=*/true), irregularModel(),
             irregularModule());
  VirtualBuffer* dRow = rt.malloc((n + 1) * 8);
  VirtualBuffer* dCol = rt.malloc(a.nnz() * 8);
  VirtualBuffer* dVal = rt.malloc(a.nnz() * 8);
  VirtualBuffer* dX = rt.malloc(n * 8);
  rt.memcpy(dRow, a.rowPtr.data(), (n + 1) * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dCol, a.colIdx.data(), a.nnz() * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dVal, a.vals.data(), a.nnz() * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dX, x.data(), n * 8, MemcpyKind::HostToDevice);
  std::vector<VirtualBuffer*> ys;
  for (int k = 0; k < keys; ++k) ys.push_back(rt.malloc(n * 8));
  const ir::Dim3 grid{(n + 63) / 64, 1, 1}, block{64, 1, 1};
  auto launchInto = [&](VirtualBuffer* dY) {
    LaunchArg args[] = {LaunchArg::ofInt(n),       LaunchArg::ofInt(n),
                        LaunchArg::ofInt(a.nnz()), LaunchArg::ofBuffer(dRow),
                        LaunchArg::ofBuffer(dCol), LaunchArg::ofBuffer(dVal),
                        LaunchArg::ofBuffer(dX),   LaunchArg::ofBuffer(dY)};
    rt.launch("spmv", grid, block, args);
  };

  for (VirtualBuffer* dY : ys) launchInto(dY);
  EXPECT_EQ(rt.stats().inspectorCacheMisses, keys);
  EXPECT_EQ(rt.stats().inspectorCacheHits, 0);

  // The newest key is still cached; the oldest was evicted and re-inspects.
  launchInto(ys.back());
  EXPECT_EQ(rt.stats().inspectorCacheHits, 1);
  launchInto(ys.front());
  EXPECT_EQ(rt.stats().inspectorCacheMisses, keys + 1);
  EXPECT_EQ(rt.stats().inspectorRuns, keys + 1);
  EXPECT_EQ(rt.stats().inspectorCacheInvalidations, 0);

  for (VirtualBuffer* dY : ys) {
    std::vector<double> got(static_cast<std::size_t>(n));
    rt.memcpy(got.data(), dY, n * 8, MemcpyKind::DeviceToHost);
    EXPECT_EQ(got, expect);
  }
}

TEST(Irregular, FreeDropsTheInspectionsThatUsedTheBuffer) {
  // Fill the 8-entry inspection cache, then free the newest key's output:
  // its entry goes with it, so a ninth key fits without evicting the
  // oldest, which still hits.
  Rng rng(418);
  const i64 n = 192;
  Csr a = makeBandedCsr(n, 3, rng);
  std::vector<double> x = makeVector(n, rng);

  Runtime rt(irregularConfig(4, /*inspector=*/true), irregularModel(),
             irregularModule());
  VirtualBuffer* dRow = rt.malloc((n + 1) * 8);
  VirtualBuffer* dCol = rt.malloc(a.nnz() * 8);
  VirtualBuffer* dVal = rt.malloc(a.nnz() * 8);
  VirtualBuffer* dX = rt.malloc(n * 8);
  rt.memcpy(dRow, a.rowPtr.data(), (n + 1) * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dCol, a.colIdx.data(), a.nnz() * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dVal, a.vals.data(), a.nnz() * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dX, x.data(), n * 8, MemcpyKind::HostToDevice);
  const ir::Dim3 grid{(n + 63) / 64, 1, 1}, block{64, 1, 1};
  auto launchInto = [&](VirtualBuffer* dY) {
    LaunchArg args[] = {LaunchArg::ofInt(n),       LaunchArg::ofInt(n),
                        LaunchArg::ofInt(a.nnz()), LaunchArg::ofBuffer(dRow),
                        LaunchArg::ofBuffer(dCol), LaunchArg::ofBuffer(dVal),
                        LaunchArg::ofBuffer(dX),   LaunchArg::ofBuffer(dY)};
    rt.launch("spmv", grid, block, args);
  };

  std::vector<VirtualBuffer*> ys;
  for (int k = 0; k < 8; ++k) {
    ys.push_back(rt.malloc(n * 8));
    launchInto(ys.back());
  }
  EXPECT_EQ(rt.stats().inspectorCacheMisses, 8);
  rt.free(ys.back());
  launchInto(rt.malloc(n * 8));  // a ninth key
  EXPECT_EQ(rt.stats().inspectorCacheMisses, 9);
  launchInto(ys.front());
  EXPECT_EQ(rt.stats().inspectorCacheHits, 1);
  EXPECT_EQ(rt.stats().inspectorCacheMisses, 9);
}

TEST(Irregular, WriteToIndirectionBufferInvalidatesInspection) {
  Rng rng(416);
  const i64 n = 192;
  Csr a = makeBandedCsr(n, 3, rng);
  std::vector<double> x = makeVector(n, rng);

  Runtime rt(irregularConfig(4, /*inspector=*/true), irregularModel(),
             irregularModule());
  VirtualBuffer* dRow = rt.malloc((n + 1) * 8);
  VirtualBuffer* dCol = rt.malloc(a.nnz() * 8);
  VirtualBuffer* dVal = rt.malloc(a.nnz() * 8);
  VirtualBuffer* dX = rt.malloc(n * 8);
  VirtualBuffer* dY = rt.malloc(n * 8);
  rt.memcpy(dRow, a.rowPtr.data(), (n + 1) * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dCol, a.colIdx.data(), a.nnz() * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dVal, a.vals.data(), a.nnz() * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dX, x.data(), n * 8, MemcpyKind::HostToDevice);
  LaunchArg args[] = {LaunchArg::ofInt(n),        LaunchArg::ofInt(n),
                      LaunchArg::ofInt(a.nnz()),  LaunchArg::ofBuffer(dRow),
                      LaunchArg::ofBuffer(dCol),  LaunchArg::ofBuffer(dVal),
                      LaunchArg::ofBuffer(dX),    LaunchArg::ofBuffer(dY)};
  const ir::Dim3 grid{(n + 63) / 64, 1, 1}, block{64, 1, 1};
  rt.launch("spmv", grid, block, args);
  EXPECT_EQ(rt.stats().inspectorRuns, 1);

  // Re-point every row's gather sources (reverse each row's columns) and
  // overwrite the device copy: the cached footprints are now wrong.
  Csr b = a;
  for (i64 r = 0; r < n; ++r)
    std::reverse(b.colIdx.begin() + b.rowPtr[static_cast<std::size_t>(r)],
                 b.colIdx.begin() + b.rowPtr[static_cast<std::size_t>(r) + 1]);
  rt.memcpy(dCol, b.colIdx.data(), b.nnz() * 8, MemcpyKind::HostToDevice);

  rt.launch("spmv", grid, block, args);
  EXPECT_EQ(rt.stats().inspectorCacheInvalidations, 1);
  EXPECT_EQ(rt.stats().inspectorRuns, 2);

  std::vector<double> expect(static_cast<std::size_t>(n));
  apps::refSpmv(b.rowPtr, b.colIdx, b.vals, x, expect);
  std::vector<double> got(static_cast<std::size_t>(n));
  rt.memcpy(got.data(), dY, n * 8, MemcpyKind::DeviceToHost);
  EXPECT_EQ(got, expect) << "stale inspection footprint survived the write";
}

// --------------------------------------------------------------------------
// The inspector's reason to exist: strictly fewer peer bytes than
// whole-buffer sharing on a banded matrix at 8+ GPUs.

TEST(Irregular, InspectorMovesStrictlyFewerBytesAtScale) {
  Rng rng(417);
  const i64 n = 2048;
  Csr a = makeBandedCsr(n, 8, rng);
  std::vector<double> x = makeVector(n, rng);
  std::vector<double> expect(static_cast<std::size_t>(n));
  apps::refSpmv(a.rowPtr, a.colIdx, a.vals, x, expect);

  for (int gpus : {8, 16, 32}) {
    double peerBytes[2] = {0, 0};
    for (bool inspector : {false, true}) {
      RuntimeConfig cfg = irregularConfig(gpus, inspector);
      cfg.machine = sim::MachineSpec::k80Node(gpus);
      Runtime rt(cfg, irregularModel(), irregularModule());
      std::vector<double> got(static_cast<std::size_t>(n), -9.0);
      apps::runSpmv(rt, a.view(), x.data(), got.data());
      ASSERT_EQ(got, expect) << gpus << " GPUs, inspector=" << inspector;
      peerBytes[inspector ? 1 : 0] = rt.machineStats().bytesPeerToPeer;
    }
    EXPECT_LT(peerBytes[1], peerBytes[0])
        << gpus << " GPUs: the inspector must move strictly fewer peer "
        << "bytes than whole-buffer sharing";
  }
}

// --------------------------------------------------------------------------
// Elastic extensions: repartition and device-failure recovery must handle
// may-access kernels.

TEST(Irregular, RepartitionHandlesMayAccessKernels) {
  Rng rng(418);
  const i64 n = 256;
  Csr a = makeBandedCsr(n, 4, rng);
  std::vector<double> x = makeVector(n, rng);
  std::vector<double> expect(static_cast<std::size_t>(n));
  apps::refSpmv(a.rowPtr, a.colIdx, a.vals, x, expect);

  for (bool inspector : {false, true}) {
    RuntimeConfig cfg = irregularConfig(4, inspector);
    cfg.allowRepartitioning = true;
    Runtime rt(cfg, irregularModel(), irregularModule());
    VirtualBuffer* dRow = rt.malloc((n + 1) * 8);
    VirtualBuffer* dCol = rt.malloc(a.nnz() * 8);
    VirtualBuffer* dVal = rt.malloc(a.nnz() * 8);
    VirtualBuffer* dX = rt.malloc(n * 8);
    VirtualBuffer* dY = rt.malloc(n * 8);
    rt.memcpy(dRow, a.rowPtr.data(), (n + 1) * 8, MemcpyKind::HostToDevice);
    rt.memcpy(dCol, a.colIdx.data(), a.nnz() * 8, MemcpyKind::HostToDevice);
    rt.memcpy(dVal, a.vals.data(), a.nnz() * 8, MemcpyKind::HostToDevice);
    rt.memcpy(dX, x.data(), n * 8, MemcpyKind::HostToDevice);
    LaunchArg args[] = {LaunchArg::ofInt(n),        LaunchArg::ofInt(n),
                        LaunchArg::ofInt(a.nnz()),  LaunchArg::ofBuffer(dRow),
                        LaunchArg::ofBuffer(dCol),  LaunchArg::ofBuffer(dVal),
                        LaunchArg::ofBuffer(dX),    LaunchArg::ofBuffer(dY)};
    const ir::Dim3 grid{(n + 63) / 64, 1, 1}, block{64, 1, 1};
    rt.launch("spmv", grid, block, args);
    rt.repartitionAll(Partitioning{{3, 1, 1, 3}});
    EXPECT_EQ(rt.stats().repartitions, 3);  // one per kernel in the module
    rt.launch("spmv", grid, block, args);
    std::vector<double> got(static_cast<std::size_t>(n));
    rt.memcpy(got.data(), dY, n * 8, MemcpyKind::DeviceToHost);
    EXPECT_EQ(got, expect) << "inspector=" << inspector;
  }
}

TEST(Irregular, RecoverDeviceCoversMayAccessWrites) {
  // BFS push scatters into `next` via the conservatively-shared may-write
  // path; histogram read-modify-writes `hist`.  After a checkpoint, a
  // device failure, and recovery onto the survivors, both must still
  // produce reference results.
  Rng rng(419);
  const i64 n = 192;
  Csr g = makeBandedCsr(n, 3, rng);
  const i64 nfront = 31;
  std::vector<i64> front(static_cast<std::size_t>(nfront));
  for (auto& u : front) u = rng.range(0, n - 1);
  std::vector<double> expect(static_cast<std::size_t>(n), 0.0);
  apps::refBfsPush(g.rowPtr, g.colIdx, front, expect);

  for (bool inspector : {false, true}) {
    RuntimeConfig cfg = irregularConfig(4, inspector);
    cfg.allowRepartitioning = true;
    Runtime rt(cfg, irregularModel(), irregularModule());
    VirtualBuffer* dFront = rt.malloc(nfront * 8);
    VirtualBuffer* dRow = rt.malloc((n + 1) * 8);
    VirtualBuffer* dCol = rt.malloc(g.nnz() * 8);
    VirtualBuffer* dNext = rt.malloc(n * 8);
    rt.memcpy(dFront, front.data(), nfront * 8, MemcpyKind::HostToDevice);
    rt.memcpy(dRow, g.rowPtr.data(), (n + 1) * 8, MemcpyKind::HostToDevice);
    rt.memcpy(dCol, g.colIdx.data(), g.nnz() * 8, MemcpyKind::HostToDevice);
    std::vector<double> zeros(static_cast<std::size_t>(n), 0.0);
    rt.memcpy(dNext, zeros.data(), n * 8, MemcpyKind::HostToDevice);
    LaunchArg args[] = {LaunchArg::ofInt(nfront),  LaunchArg::ofInt(n),
                        LaunchArg::ofInt(g.nnz()), LaunchArg::ofBuffer(dFront),
                        LaunchArg::ofBuffer(dRow), LaunchArg::ofBuffer(dCol),
                        LaunchArg::ofBuffer(dNext)};
    const ir::Dim3 grid{(nfront + 63) / 64, 1, 1}, block{64, 1, 1};
    rt.launch("bfs_push", grid, block, args);
    rt.deviceSynchronize();

    Checkpoint cp = rt.checkpoint();
    rt.machine().failDevice(1);
    rt.recoverDevice(1, cp, Partitioning{{1, 0, 1, 1}});
    EXPECT_EQ(rt.stats().recoveries, 1);

    // Keep computing on the survivors: relaunch and re-check.
    rt.launch("bfs_push", grid, block, args);
    std::vector<double> got(static_cast<std::size_t>(n));
    rt.memcpy(got.data(), dNext, n * 8, MemcpyKind::DeviceToHost);
    EXPECT_EQ(got, expect) << "inspector=" << inspector;
  }
}

// --------------------------------------------------------------------------
// Mode gate: may-access tracking (and the inspection walk) needs buffer
// contents, i.e. Functional execution.

TEST(Irregular, MayAccessRequiresFunctionalMode) {
  RuntimeConfig cfg = irregularConfig(2, /*inspector=*/false);
  cfg.mode = sim::ExecutionMode::TimingOnly;
  Runtime rt(cfg, irregularModel(), irregularModule());
  const i64 n = 64;
  VirtualBuffer* dKeys = rt.malloc(n * 8);
  VirtualBuffer* dHist = rt.malloc(16 * 8);
  LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofInt(16),
                      LaunchArg::ofBuffer(dKeys), LaunchArg::ofBuffer(dHist)};
  EXPECT_THROW(rt.launch("histogram", {1, 1, 1}, {64, 1, 1}, args),
               UnsupportedOperationError);
}

}  // namespace
}  // namespace polypart::rt
