// Differential fuzzing of the inspector–executor against randomized
// indirection structures (duplicate indices, empty rows, out-of-order
// columns, degenerate frontiers).
//
// The coverage contract under test: the inspection walk's per-device
// footprints must cover every access the partitioned interpreter performs.
// A missed element would leave that gather source stale on the executing
// device, so running each case under BOTH fallback modes and comparing
// against the CPU reference detects any coverage hole byte-for-byte.  On
// top of the differential check, the walk's access count is pinned against
// the analytically known gather count of each workload.
//
// Seeds follow tests/fuzz_util.h; a failing case replays alone via
// POLYPART_FUZZ_SEED.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "apps/reference.h"
#include "fuzz_util.h"
#include "ir/builder.h"
#include "ir/interp.h"
#include "ir/transform.h"
#include "rt/runtime.h"

namespace polypart::rt {
namespace {

const ir::Module& fuzzModule() {
  static ir::Module m = apps::buildIrregularModule();
  return m;
}

const analysis::ApplicationModel& fuzzModel() {
  static analysis::ApplicationModel m = analysis::analyzeModule(fuzzModule());
  return m;
}

struct RandomCsr {
  i64 n = 0;
  std::vector<i64> rowPtr;
  std::vector<i64> colIdx;
  std::vector<double> vals;
  i64 nnz() const { return static_cast<i64>(colIdx.size()); }
};

/// Adversarial CSR: a random share of rows are empty, the rest draw a random
/// number of columns uniformly (duplicates and arbitrary order included —
/// nothing sorts or dedups them).
RandomCsr makeRandomCsr(fuzz::SeededRng& rng, i64 n) {
  RandomCsr a;
  a.n = n;
  a.rowPtr.push_back(0);
  for (i64 r = 0; r < n; ++r) {
    if (rng.range(0, 3) != 0) {  // ~25% empty rows
      const i64 deg = rng.range(1, 9);
      for (i64 d = 0; d < deg; ++d) {
        a.colIdx.push_back(rng.range(0, n - 1));
        a.vals.push_back(rng.uniform() - 0.5);
      }
    }
    a.rowPtr.push_back(a.nnz());
  }
  return a;
}

TEST(InspectorFuzz, SpmvFootprintsCoverEveryGatherSource) {
  const int cases = fuzz::caseCount(25);
  for (int c = 0; c < cases; ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(31, c));
    const i64 n = rng.range(17, 200);
    RandomCsr a = makeRandomCsr(rng, n);
    if (a.nnz() == 0) continue;
    std::vector<double> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.uniform() * 4 - 2;
    std::vector<double> expect(static_cast<std::size_t>(n));
    apps::refSpmv(a.rowPtr, a.colIdx, a.vals, x, expect);
    const apps::CsrMatrix view{n, n, a.nnz(), a.rowPtr.data(), a.colIdx.data(),
                               a.vals.data()};

    const int gpus = static_cast<int>(rng.range(2, 8));
    for (bool inspector : {false, true}) {
      RuntimeConfig cfg;
      cfg.numGpus = gpus;
      cfg.mode = sim::ExecutionMode::Functional;
      cfg.inspectorExecutor = inspector;
      Runtime rt(cfg, fuzzModel(), fuzzModule());
      std::vector<double> got(static_cast<std::size_t>(n), -3.0);
      apps::runSpmv(rt, view, x.data(), got.data());
      ASSERT_EQ(got, expect)
          << rng.replay() << ", " << gpus << " GPUs, inspector=" << inspector;
      if (inspector) {
        ASSERT_EQ(rt.stats().inspectorRuns, 1) << rng.replay();
        // Independent oracle: x is gathered once per stored nonzero.
        ASSERT_EQ(rt.stats().inspectedElements, a.nnz()) << rng.replay();
      }
    }
  }
}

TEST(InspectorFuzz, BfsFrontiersWithDuplicatesAndEmptyRows) {
  const int cases = fuzz::caseCount(25);
  for (int c = 0; c < cases; ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(32, c));
    const i64 n = rng.range(9, 150);
    RandomCsr g = makeRandomCsr(rng, n);
    // Frontier of random nodes: duplicates are likely, order is arbitrary,
    // and an empty frontier is a legal degenerate case.
    const i64 nfront = rng.range(1, n);
    std::vector<i64> front(static_cast<std::size_t>(nfront));
    for (auto& u : front) u = rng.range(0, n - 1);
    std::vector<double> expect(static_cast<std::size_t>(n), 0.0);
    apps::refBfsPush(g.rowPtr, g.colIdx, front, expect);

    const int gpus = static_cast<int>(rng.range(2, 8));
    for (bool inspector : {false, true}) {
      RuntimeConfig cfg;
      cfg.numGpus = gpus;
      cfg.mode = sim::ExecutionMode::Functional;
      cfg.inspectorExecutor = inspector;
      Runtime rt(cfg, fuzzModel(), fuzzModule());
      std::vector<double> got(static_cast<std::size_t>(n), 0.0);
      apps::runBfsPush(rt, n, g.nnz(), g.rowPtr.data(), g.colIdx.data(),
                       nfront, front.data(), got.data());
      ASSERT_EQ(got, expect)
          << rng.replay() << ", " << gpus << " GPUs, inspector=" << inspector;
      if (inspector) {
        ASSERT_EQ(rt.stats().inspectedElements, 2 * nfront) << rng.replay();
      }
    }
  }
}

TEST(InspectorFuzz, HistogramCollisionsAcrossPartitions) {
  const int cases = fuzz::caseCount(20);
  for (int c = 0; c < cases; ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(33, c));
    const i64 nkeys = rng.range(5, 400);
    // Few bins relative to keys: heavy cross-partition collisions, the
    // worst case for the serialized read-modify-write gather path.
    const i64 nbins = rng.range(1, 16);
    std::vector<i64> keys(static_cast<std::size_t>(nkeys));
    for (auto& k : keys) k = rng.range(0, nbins - 1);
    std::vector<double> expect(static_cast<std::size_t>(nbins), 0.0);
    apps::refHistogram(keys, expect);

    const int gpus = static_cast<int>(rng.range(2, 8));
    for (bool inspector : {false, true}) {
      RuntimeConfig cfg;
      cfg.numGpus = gpus;
      cfg.mode = sim::ExecutionMode::Functional;
      cfg.inspectorExecutor = inspector;
      Runtime rt(cfg, fuzzModel(), fuzzModule());
      std::vector<double> got(static_cast<std::size_t>(nbins), 0.0);
      apps::runHistogram(rt, nkeys, nbins, keys.data(), got.data());
      ASSERT_EQ(got, expect)
          << rng.replay() << ", " << gpus << " GPUs, inspector=" << inspector;
    }
  }
}

// -- address slice versus full walk -----------------------------------------

/// Inspectable args of `kernel` as the runtime derives them: may-access
/// reads that are not may-written.
std::vector<std::size_t> inspectedArgs(const std::string& kernel) {
  std::vector<std::size_t> out;
  for (const analysis::KernelModel& km : fuzzModel().kernels)
    if (km.kernel == kernel)
      for (const analysis::ArrayModel& a : km.arrays)
        if (a.readMayAccess && !a.writeMayAccess) out.push_back(a.argIndex);
  return out;
}

/// One observed read: (partition, arg, element).
using Read = std::tuple<int, std::size_t, i64>;

/// Runs the partitioned clone program `p` over `parts` block ranges of a 1-D
/// grid in ascending order on shared copies of `arrays` (one per array
/// parameter, in order) — the inspection walk's schedule — and returns its
/// reads of `observed`.  Arrays `p` does not access the data of are passed
/// as extents alone.
std::vector<Read> partitionedReads(const ir::Program& p, const ir::Kernel& part,
                                   std::vector<std::vector<i64>> arrays,
                                   const std::vector<ir::ArgValue>& scalars,
                                   const std::vector<std::pair<i64, i64>>& parts,
                                   i64 block, std::span<const std::size_t> observed) {
  std::vector<Read> reads;
  int current = 0;
  ir::AccessObserver obs = [&](std::size_t arg, bool isWrite, i64 flat,
                               std::span<const i64, 12>) {
    if (!isWrite && std::find(observed.begin(), observed.end(), arg) != observed.end())
      reads.emplace_back(current, arg, flat);
  };
  for (std::size_t g = 0; g < parts.size(); ++g) {
    const auto [lo, hi] = parts[g];
    if (lo == hi) continue;
    current = static_cast<int>(g);
    std::vector<ir::ArgValue> args;
    std::size_t si = 0, ai = 0;
    for (std::size_t i = 0; i + 6 < part.numParams(); ++i) {
      if (!part.param(i).isArray) {
        args.push_back(scalars[si++]);
        continue;
      }
      std::vector<i64>& a = arrays[ai++];
      args.push_back(ir::ArgValue::ofBuffer(p.accessesData(i) ? a.data() : nullptr,
                                            static_cast<i64>(a.size())));
    }
    for (i64 v : {lo, i64{0}, i64{0}, hi, i64{1}, i64{1}})
      args.push_back(ir::ArgValue::ofInt(v));
    p.run(ir::LaunchConfig{{hi - lo, 1, 1}, {block, 1, 1}}, args, obs);
  }
  return reads;
}

/// Splits `blocks` grid blocks into `gpus` contiguous random ranges.
std::vector<std::pair<i64, i64>> randomSplit(fuzz::SeededRng& rng, i64 blocks, int gpus) {
  std::vector<i64> cuts = {0, blocks};
  for (int g = 1; g < gpus; ++g) cuts.push_back(rng.range(0, blocks));
  std::sort(cuts.begin(), cuts.end());
  std::vector<std::pair<i64, i64>> parts;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) parts.emplace_back(cuts[i], cuts[i + 1]);
  return parts;
}

std::vector<i64> bitsOf(const std::vector<double>& v) {
  std::vector<i64> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  return out;
}

TEST(InspectorFuzz, SliceObservesTheFullWalksReads) {
  const ir::Program spmvFull =
      ir::Program::compile(*ir::partitionKernel(*fuzzModule().find("spmv")));
  const ir::Program bfsFull =
      ir::Program::compile(*ir::partitionKernel(*fuzzModule().find("bfs_push")));
  const std::vector<std::size_t> spmvArgs = inspectedArgs("spmv");
  const std::vector<std::size_t> bfsArgs = inspectedArgs("bfs_push");
  ASSERT_FALSE(spmvArgs.empty());
  ASSERT_FALSE(bfsArgs.empty());
  const ir::Program spmvWalk = spmvFull.slice(spmvArgs);
  const ir::Program bfsWalk = bfsFull.slice(bfsArgs);
  const ir::KernelPtr spmvPart = ir::partitionKernel(*fuzzModule().find("spmv"));
  const ir::KernelPtr bfsPart = ir::partitionKernel(*fuzzModule().find("bfs_push"));

  const int cases = fuzz::caseCount(40);
  for (int c = 0; c < cases; ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(34, c));
    SCOPED_TRACE(rng.replay());
    const i64 n = rng.range(9, 200);
    RandomCsr a = makeRandomCsr(rng, n);
    const i64 block = rng.range(1, 16);
    const int gpus = static_cast<int>(rng.range(2, 8));

    // spmv(nrows, ncols, nnz, row_ptr, col_idx, vals, x, y)
    std::vector<double> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.uniform() * 4 - 2;
    const std::vector<std::vector<i64>> spmvArrays = {
        a.rowPtr, a.colIdx, bitsOf(a.vals), bitsOf(x),
        std::vector<i64>(static_cast<std::size_t>(n))};
    const std::vector<ir::ArgValue> spmvScalars = {
        ir::ArgValue::ofInt(n), ir::ArgValue::ofInt(n), ir::ArgValue::ofInt(a.nnz())};
    auto parts = randomSplit(rng, (n + block - 1) / block, gpus);
    const std::vector<Read> want = partitionedReads(
        spmvFull, *spmvPart, spmvArrays, spmvScalars, parts, block, spmvArgs);
    EXPECT_EQ(static_cast<i64>(want.size()), a.nnz());
    EXPECT_EQ(partitionedReads(spmvWalk, *spmvPart, spmvArrays, spmvScalars, parts,
                               block, spmvArgs),
              want);

    // bfs_push(nfront, nnodes, nedges, front, row_ptr, col_idx, next)
    const i64 nfront = rng.range(1, n);
    std::vector<i64> front(static_cast<std::size_t>(nfront));
    for (auto& u : front) u = rng.range(0, n - 1);
    const std::vector<std::vector<i64>> bfsArrays = {
        front, a.rowPtr, a.colIdx, std::vector<i64>(static_cast<std::size_t>(n))};
    const std::vector<ir::ArgValue> bfsScalars = {
        ir::ArgValue::ofInt(nfront), ir::ArgValue::ofInt(n), ir::ArgValue::ofInt(a.nnz())};
    parts = randomSplit(rng, (nfront + block - 1) / block, gpus);
    const std::vector<Read> wantBfs = partitionedReads(
        bfsFull, *bfsPart, bfsArrays, bfsScalars, parts, block, bfsArgs);
    EXPECT_EQ(static_cast<i64>(wantBfs.size()), 2 * nfront);
    EXPECT_EQ(partitionedReads(bfsWalk, *bfsPart, bfsArrays, bfsScalars, parts, block,
                               bfsArgs),
              wantBfs);
  }
  // The slices skip the value payloads and the outputs.
  EXPECT_FALSE(spmvWalk.accessesData(5));  // vals
  EXPECT_FALSE(spmvWalk.accessesData(7));  // y
  EXPECT_FALSE(bfsWalk.accessesData(6));   // next
}

TEST(InspectorFuzz, SliceKeepsStoresToGatheredArrays) {
  // chase(n, idx, a, x, y): thread i reads p = a[i], stores idx[i] into
  // a[(7i + 3) % n], then gathers x[p].  Which element of x a thread reads
  // depends on stores of earlier threads and earlier partitions, so the
  // slice for x must keep the stores to a.
  ir::KernelBuilder b("chase");
  auto n = b.scalar("n", ir::Type::I64);
  auto idx = b.array("idx", ir::Type::I64);
  auto arr = b.array("a", ir::Type::I64);
  auto x = b.array("x", ir::Type::F64);
  auto y = b.array("y", ir::Type::F64);
  auto i = b.let("i", b.globalId(ir::Axis::X));
  b.iff(ir::lt(i, n), [&] {
    auto p = b.let("p", b.load(arr, i));
    b.store(arr, (i * ir::iconst(7) + ir::iconst(3)) % n, b.load(idx, i));
    b.store(y, i, b.load(x, p));
  });
  const ir::KernelPtr part = ir::partitionKernel(*b.build());
  const std::size_t observed[] = {3};  // x
  const ir::Program full = ir::Program::compile(*part);
  const ir::Program walk = full.slice(observed);
  EXPECT_TRUE(walk.accessesData(1));   // idx: the stored values
  EXPECT_TRUE(walk.accessesData(2));   // a: gathered through, and stored to
  EXPECT_FALSE(walk.accessesData(3));  // x: observed only
  EXPECT_FALSE(walk.accessesData(4));  // y: output

  int storesMattered = 0;
  const int cases = fuzz::caseCount(40);
  for (int c = 0; c < cases; ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(35, c));
    SCOPED_TRACE(rng.replay());
    const i64 len = rng.range(2, 120);
    std::vector<i64> idxv(static_cast<std::size_t>(len)), av(idxv.size());
    for (auto& v : idxv) v = rng.range(0, len - 1);
    for (auto& v : av) v = rng.range(0, len - 1);
    const std::vector<std::vector<i64>> arrays = {
        idxv, av, std::vector<i64>(idxv.size()), std::vector<i64>(idxv.size())};
    const i64 block = rng.range(1, 8);
    const auto parts = randomSplit(rng, (len + block - 1) / block,
                                   static_cast<int>(rng.range(2, 6)));
    const std::vector<ir::ArgValue> scalars = {ir::ArgValue::ofInt(len)};

    // Independent oracle: the sequential semantics, thread by thread.
    std::vector<Read> want;
    std::vector<i64> seq = av;
    bool differs = false;
    for (std::size_t g = 0; g < parts.size(); ++g)
      for (i64 t = parts[g].first * block; t < parts[g].second * block; ++t) {
        if (t >= len) continue;
        const i64 pv = seq[static_cast<std::size_t>(t)];
        differs |= pv != av[static_cast<std::size_t>(t)];
        seq[static_cast<std::size_t>((t * 7 + 3) % len)] = idxv[static_cast<std::size_t>(t)];
        want.emplace_back(static_cast<int>(g), 3, pv);
      }
    storesMattered += differs ? 1 : 0;
    EXPECT_EQ(partitionedReads(full, *part, arrays, scalars, parts, block, observed), want);
    EXPECT_EQ(partitionedReads(walk, *part, arrays, scalars, parts, block, observed), want);
  }
  if (!fuzz::seedPinned()) {
    EXPECT_GT(storesMattered, cases / 2);
  }
}

}  // namespace
}  // namespace polypart::rt
