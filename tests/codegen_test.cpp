// Tests for enumerator generation (paper Section 6): range extraction for
// grid partitions, the full-row coalescing optimization, the C emission of
// the Section 6.2 interface, and trace-based exactness properties.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "analysis/analyze.h"
#include "apps/kernels.h"
#include "codegen/enumerator.h"
#include "ir/builder.h"
#include "ir/interp.h"
#include "ir/transform.h"

namespace polypart::codegen {
namespace {

using analysis::KernelModel;
using ir::ArgValue;
using ir::Dim3;
using ir::GridPartition;
using ir::KernelPtr;
using ir::LaunchConfig;

std::vector<std::pair<i64, i64>> collect(const Enumerator& e,
                                         const PartitionTuple& part,
                                         const LaunchConfig& cfg,
                                         std::span<const i64> scalars) {
  std::vector<std::pair<i64, i64>> out;
  e.enumerate(part, cfg, scalars, [&](i64 b, i64 en) { out.emplace_back(b, en); });
  return out;
}

const Enumerator& find(const std::vector<Enumerator>& es, std::size_t arg,
                       bool write) {
  for (const Enumerator& e : es)
    if (e.argIndex() == arg && e.isWrite() == write) return e;
  throw Error("enumerator not found");
}

TEST(Codegen, SaxpyReadRanges) {
  KernelModel m = analysis::analyzeKernel(*apps::buildSaxpy());
  auto es = buildEnumerators(m);
  const Enumerator& xRead = find(es, 2, false);
  // n = 1000, blocks of 128, grid 8; partition blocks [2, 5).
  LaunchConfig cfg{{8, 1, 1}, {128, 1, 1}};
  PartitionTuple part = PartitionTuple::fromBlocks(
      GridPartition{{2, 0, 0}, {5, 1, 1}}, cfg.block);
  i64 scalars[] = {1000};
  auto ranges = collect(xRead, part, cfg, scalars);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 256);
  EXPECT_EQ(ranges[0].second, 640);

  // The last partition is clipped by the n < gridDim*blockDim guard.
  PartitionTuple tail = PartitionTuple::fromBlocks(
      GridPartition{{5, 0, 0}, {8, 1, 1}}, cfg.block);
  auto tailRanges = collect(xRead, tail, cfg, scalars);
  ASSERT_EQ(tailRanges.size(), 1u);
  EXPECT_EQ(tailRanges[0].first, 640);
  EXPECT_EQ(tailRanges[0].second, 1000);
}

TEST(Codegen, HotspotHaloAndCoalescing) {
  KernelModel m = analysis::analyzeKernel(*apps::buildHotspot());
  auto es = buildEnumerators(m);
  const Enumerator& tinRead = find(es, 3, false);
  const Enumerator& toutWrite = find(es, 5, true);
  EXPECT_TRUE(toutWrite.exact());

  // n = 64, 8x8 blocks, 8x8 grid.  Partition: block rows [2, 4) => thread
  // rows [16, 32); the read set must include halo rows 15 and 32.
  LaunchConfig cfg{{8, 8, 1}, {8, 8, 1}};
  PartitionTuple part = PartitionTuple::fromBlocks(
      GridPartition{{0, 2, 0}, {8, 4, 1}}, cfg.block);
  i64 scalars[] = {64};

  auto ranges = collect(tinRead, part, cfg, scalars);
  // Full-row coalescing: rows 15..32 of a 64-wide array are one range.
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 15 * 64);
  EXPECT_EQ(ranges[0].second, 33 * 64);

  auto writes = collect(toutWrite, part, cfg, scalars);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].first, 16 * 64);
  EXPECT_EQ(writes[0].second, 32 * 64);
}

/// A write whose disjuncts do not form a convex set: only the left column
/// and the top row of an n x n array (an L shape).
ir::KernelPtr buildBorderOnly() {
  ir::KernelBuilder b("border_only");
  auto n = b.scalar("n", ir::Type::I64);
  auto out = b.array("out", ir::Type::F64, {n, n});
  auto x = b.let("x", b.globalId(ir::Axis::X));
  auto y = b.let("y", b.globalId(ir::Axis::Y));
  b.iff(ir::land(ir::lt(x, n), ir::lt(y, n)), [&] {
    b.iff(ir::lor(ir::lt(x, ir::iconst(1)), ir::lt(y, ir::iconst(1))),
          [&] { b.store(out, y * n + x, ir::fconst(1.0)); });
  });
  return b.build();
}

/// Coalescing is a pure representation change for writes: on every tier the
/// coalesced range list and EnumInfo equal the per-row (coalesce = false)
/// interpreter's.  Hotspot's five-piece write goes through its proven convex
/// nest; the border-only write is not convex and keeps the per-disjunct walk.
/// Reads may only grow (the hull).
TEST(Codegen, CoalescingMatchesPerRowEnumeration) {
  LaunchConfig cfg{{4, 4, 1}, {8, 8, 1}};
  i64 scalars[] = {30};  // grid overhang: 32 threads cover 30 cells
  for (const KernelPtr& k : {apps::buildHotspot(), buildBorderOnly()}) {
    KernelModel m = analysis::analyzeKernel(*k);
    auto es = buildEnumerators(m);
    for (i64 lo = 0; lo < 4; ++lo) {
      for (i64 hi = lo + 1; hi <= 4; ++hi) {
        // Row slices and column slices of the 4 x 4 block grid.
        for (GridPartition gp : {GridPartition{{0, lo, 0}, {4, hi, 1}},
                                 GridPartition{{lo, 0, 0}, {hi, 4, 1}}}) {
          PartitionTuple part = PartitionTuple::fromBlocks(gp, cfg.block);
          for (const Enumerator& e : es) {
            SCOPED_TRACE(e.name() + " partition [" + std::to_string(gp.lo.x) +
                         "," + std::to_string(gp.hi.x) + ")x[" +
                         std::to_string(gp.lo.y) + "," +
                         std::to_string(gp.hi.y) + ")");
            Enumerator perRow = e;
            perRow.coalesce = false;
            MaterializedRanges ref = perRow.materialize(part, cfg, scalars);
            if (!e.isWrite()) {
              std::set<i64> covered;
              for (auto [b, en] : collect(e, part, cfg, scalars))
                for (i64 v = b; v < en; ++v) covered.insert(v);
              for (auto [b, en] : ref.ranges)
                for (i64 v = b; v < en; ++v)
                  EXPECT_TRUE(covered.count(v)) << "lost element " << v;
              continue;
            }
            for (EnumTier tier :
                 {EnumTier::Interpret, EnumTier::Bytecode, EnumTier::Specialized}) {
              Enumerator coalesced = e;
              coalesced.tier = tier;
              MaterializedRanges got = coalesced.materialize(part, cfg, scalars);
              EXPECT_EQ(got.ranges, ref.ranges) << enumTierName(tier);
              EXPECT_EQ(got.info, ref.info) << enumTierName(tier);
            }
          }
        }
      }
    }
  }
}

/// emitC() renders the nest enumerate() uses with coalescing on: the proven
/// convex union for hotspot's stencil write, the disjuncts otherwise.
TEST(Codegen, EmitCRendersProvenConvexUnion) {
  KernelModel hotspot = analysis::analyzeKernel(*apps::buildHotspot());
  std::string src = find(buildEnumerators(hotspot), 5, true).emitC();
  EXPECT_NE(src.find("// Convex union of 5 disjuncts"), std::string::npos) << src;
  EXPECT_EQ(src.find("// Disjunct"), std::string::npos) << src;

  KernelModel border = analysis::analyzeKernel(*buildBorderOnly());
  std::string lshape = find(buildEnumerators(border), 1, true).emitC();
  EXPECT_EQ(lshape.find("Convex union"), std::string::npos) << lshape;
  EXPECT_NE(lshape.find("// Disjunct 1"), std::string::npos) << lshape;
}

TEST(Codegen, MatmulBReadIsFullMatrix) {
  KernelModel m = analysis::analyzeKernel(*apps::buildMatmul());
  auto es = buildEnumerators(m);
  const Enumerator& bRead = find(es, 2, false);
  LaunchConfig cfg{{4, 4, 1}, {4, 4, 1}};
  i64 scalars[] = {16};
  // Any row partition reads all of B (column-wise access, Section 9.1).
  PartitionTuple part = PartitionTuple::fromBlocks(
      GridPartition{{0, 1, 0}, {4, 2, 1}}, cfg.block);
  auto ranges = collect(bRead, part, cfg, scalars);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0);
  EXPECT_EQ(ranges[0].second, 16 * 16);
  // A only needs the partition's rows.
  const Enumerator& aRead = find(es, 1, false);
  auto aRanges = collect(aRead, part, cfg, scalars);
  ASSERT_EQ(aRanges.size(), 1u);
  EXPECT_EQ(aRanges[0].first, 4 * 16);
  EXPECT_EQ(aRanges[0].second, 8 * 16);
}

/// Property: for every benchmark kernel and several partitions, the write
/// enumerator's ranges equal exactly the flat indices the partitioned kernel
/// writes, and the read enumerator's ranges cover all reads.
TEST(Codegen, RangesMatchPartitionedExecutionTrace) {
  struct Case {
    KernelPtr kernel;
    LaunchConfig cfg;
    std::vector<i64> scalarValues;  // i64 scalars in declaration order
  };
  std::vector<Case> cases;
  cases.push_back({apps::buildSaxpy(), {{6, 1, 1}, {16, 1, 1}}, {90}});
  cases.push_back({apps::buildHotspot(), {{3, 3, 1}, {4, 4, 1}}, {11}});
  cases.push_back({apps::buildMatmul(), {{3, 3, 1}, {4, 4, 1}}, {10}});
  cases.push_back({apps::buildNBodyForces(), {{4, 1, 1}, {4, 1, 1}}, {14}});

  for (const Case& c : cases) {
    KernelModel model = analysis::analyzeKernel(*c.kernel);
    auto es = buildEnumerators(model);
    ir::KernelPtr part = ir::partitionKernel(*c.kernel);
    analysis::PartitionStrategy strat = model.strategy;

    // Split the grid along the strategy axis into two partitions.
    Dim3 g = c.cfg.grid;
    i64 extent = strat == analysis::PartitionStrategy::SplitY ? g.y : g.x;
    i64 mid = extent / 2;
    for (int piece = 0; piece < 2; ++piece) {
      GridPartition gp{{0, 0, 0}, {g.x, g.y, g.z}};
      if (strat == analysis::PartitionStrategy::SplitY) {
        gp.lo.y = piece == 0 ? 0 : mid;
        gp.hi.y = piece == 0 ? mid : g.y;
      } else {
        gp.lo.x = piece == 0 ? 0 : mid;
        gp.hi.x = piece == 0 ? mid : g.x;
      }

      // Allocate argument buffers large enough for each array.
      std::vector<std::vector<double>> storage;
      std::vector<ArgValue> args;
      std::size_t scalarIdx = 0;
      i64 n = c.scalarValues[0];
      for (const ir::Param& p : c.kernel->params()) {
        if (p.isArray) {
          std::size_t elems = static_cast<std::size_t>(
              p.shape.size() == 2 ? n * n : n);
          storage.emplace_back(elems, 1.0);
          args.push_back(ArgValue::ofBuffer(storage.back().data(),
                                            static_cast<i64>(elems)));
        } else if (p.type == ir::Type::I64) {
          args.push_back(ArgValue::ofInt(c.scalarValues[scalarIdx++]));
        } else {
          args.push_back(ArgValue::ofFloat(0.25));
        }
      }
      // Partition arguments: min x,y,z then max x,y,z (Section 7).
      std::vector<ArgValue> partArgs = args;
      partArgs.push_back(ArgValue::ofInt(gp.lo.x));
      partArgs.push_back(ArgValue::ofInt(gp.lo.y));
      partArgs.push_back(ArgValue::ofInt(gp.lo.z));
      partArgs.push_back(ArgValue::ofInt(gp.hi.x));
      partArgs.push_back(ArgValue::ofInt(gp.hi.y));
      partArgs.push_back(ArgValue::ofInt(gp.hi.z));

      std::map<std::size_t, std::set<i64>> readsSeen, writesSeen;
      ir::AccessObserver obs = [&](std::size_t arg, bool isWrite, i64 flat,
                                   std::span<const i64, 12>) {
        (isWrite ? writesSeen : readsSeen)[arg].insert(flat);
      };
      LaunchConfig partCfg{{gp.hi.x - gp.lo.x, gp.hi.y - gp.lo.y, gp.hi.z - gp.lo.z},
                           c.cfg.block};
      ir::execute(*part, partCfg, partArgs, obs);

      PartitionTuple tuple = PartitionTuple::fromBlocks(gp, c.cfg.block);
      for (const Enumerator& e : es) {
        std::set<i64> enumerated;
        e.enumerate(tuple, c.cfg, c.scalarValues, [&](i64 b, i64 en) {
          for (i64 v = b; v < en; ++v) enumerated.insert(v);
        });
        if (e.isWrite()) {
          EXPECT_EQ(enumerated, writesSeen[e.argIndex()])
              << e.name() << " piece " << piece << " of kernel "
              << c.kernel->name();
        } else {
          const std::set<i64>& seen = readsSeen[e.argIndex()];
          for (i64 v : seen)
            EXPECT_TRUE(enumerated.count(v))
                << e.name() << " missing read of element " << v;
        }
      }
    }
  }
}

TEST(Codegen, EmitCHasPaperInterface) {
  KernelModel m = analysis::analyzeKernel(*apps::buildHotspot());
  auto es = buildEnumerators(m);
  const Enumerator& tinRead = find(es, 3, false);
  std::string src = tinRead.emitC();
  EXPECT_NE(src.find("void hotspot_arg3_read(const int64_t* partition"), std::string::npos);
  EXPECT_NE(src.find("polypart_range_cb cb"), std::string::npos);
  EXPECT_NE(src.find("boyLo"), std::string::npos);
  // Write enumerators follow the same naming rule.
  const Enumerator& toutWrite = find(es, 5, true);
  EXPECT_EQ(toutWrite.name(), "hotspot_arg5_write");
}

TEST(Codegen, CountElementsMatchesRanges) {
  KernelModel m = analysis::analyzeKernel(*apps::buildSaxpy());
  auto es = buildEnumerators(m);
  const Enumerator& yWrite = find(es, 3, true);
  LaunchConfig cfg{{8, 1, 1}, {64, 1, 1}};
  i64 scalars[] = {500};
  PartitionTuple all = PartitionTuple::fromBlocks(
      GridPartition{{0, 0, 0}, {8, 1, 1}}, cfg.block);
  EXPECT_EQ(yWrite.countElements(all, cfg, scalars), 500);
}

/// A 1-D kernel with a scalar-deep halo read (a[i] and a[i - g]): with g and
/// n near 2^62 the access-set extent sums past the 64-bit range even though
/// every range endpoint is representable.
ir::KernelPtr buildDeepHalo() {
  ir::KernelBuilder b("deephalo");
  auto n = b.scalar("n", ir::Type::I64);
  auto g = b.scalar("g", ir::Type::I64);
  auto a = b.array("a", ir::Type::F64, {n});
  auto out = b.array("out", ir::Type::F64, {n});
  auto i = b.let("i", b.globalId(ir::Axis::X));
  b.iff(ir::lt(i, n), [&] {
    b.store(out, i, b.load(a, i) + b.load(a, i - g));
  });
  return b.build();
}

TEST(Codegen, CountElementsNearOverflowKernel) {
  KernelModel m = analysis::analyzeKernel(*buildDeepHalo());
  auto es = buildEnumerators(m);
  const Enumerator& aRead = find(es, 2, false);

  // Small case: the halo read [-10, 90) is clipped to the declared shape
  // and merged with [0, 100) — overlapping disjuncts are counted once.
  {
    LaunchConfig cfg{{4, 1, 1}, {32, 1, 1}};
    i64 scalars[] = {100, 10};
    PartitionTuple all = PartitionTuple::fromBlocks(
        GridPartition{{0, 0, 0}, {4, 1, 1}}, cfg.block);
    EXPECT_EQ(aRead.countElements(all, cfg, scalars), 100);
  }

  // Near-overflow case: n = 9e18 (97.6 % of the i64 range).  The merged
  // read set is one range [0, 9e18); the count must come back exact — the
  // previous implementation accumulated `e - b` in unchecked 64-bit
  // arithmetic and only stayed correct here by the (unverified) global
  // argument that merged shape-clipped ranges cannot sum past 2^63.  The
  // 128-bit accumulation checks that argument and throws a diagnosable
  // OverflowError instead of wrapping if it is ever violated.
  const i64 big = i64{9000000000000000000};  // 1024 * 8789062500000000
  LaunchConfig cfg{{big / 1024, 1, 1}, {1024, 1, 1}};
  i64 scalars[] = {big, 1000};
  PartitionTuple all = PartitionTuple::fromBlocks(
      GridPartition{{0, 0, 0}, {big / 1024, 1, 1}}, cfg.block);
  MaterializedRanges mat;
  ASSERT_NO_THROW(mat = aRead.materialize(all, cfg, scalars));
  ASSERT_EQ(mat.ranges.size(), 1u);
  EXPECT_EQ(mat.ranges[0], (std::pair<i64, i64>{0, big}));
  EXPECT_EQ(aRead.countElements(all, cfg, scalars), big);
}

/// Satellite contract: a materialized plan replayed later must be
/// bit-identical to a live enumerate() call — same ranges in the same order
/// and the same work accounting — for every execution tier and coalescing
/// setting (the runtime's enumeration cache stores MaterializedRanges and
/// charges modeled time from its EnumInfo).
TEST(Codegen, MaterializeReplayMatchesLiveEnumerate) {
  for (const ir::KernelPtr& k :
       {apps::buildSaxpy(), apps::buildHotspot(), apps::buildMatmul()}) {
    KernelModel m = analysis::analyzeKernel(*k);
    auto es = buildEnumerators(m);
    LaunchConfig cfg{{4, 4, 1}, {8, 8, 1}};
    i64 scalars[] = {23};
    PartitionTuple part = PartitionTuple::fromBlocks(
        GridPartition{{1, 0, 0}, {4, 3, 1}}, cfg.block);
    for (Enumerator e : es) {
      for (EnumTier tier :
           {EnumTier::Interpret, EnumTier::Bytecode, EnumTier::Specialized}) {
        for (bool coalesce : {true, false}) {
          e.tier = tier;
          e.coalesce = coalesce;
          MaterializedRanges mat = e.materialize(part, cfg, scalars);
          std::vector<std::pair<i64, i64>> live;
          EnumInfo info;
          e.enumerate(part, cfg, scalars,
                      [&](i64 b, i64 en) { live.emplace_back(b, en); }, &info);
          EXPECT_EQ(mat.ranges, live)
              << e.name() << " tier " << enumTierName(tier);
          EXPECT_EQ(mat.info, info)
              << e.name() << " tier " << enumTierName(tier)
              << ": work accounting diverges between materialize and replay";
        }
      }
    }
  }
}

/// The bytecode and specialized tiers must emit byte-identical ranges and
/// accounting to the interpreter, including on repeated specialized calls
/// that hit the per-enumerator program cache.
TEST(Codegen, ExecutionTiersAreByteIdentical) {
  for (const ir::KernelPtr& k :
       {apps::buildSaxpy(), apps::buildHotspot(), apps::buildMatmul(),
        apps::buildNBodyForces()}) {
    KernelModel m = analysis::analyzeKernel(*k);
    auto es = buildEnumerators(m);
    LaunchConfig cfg{{6, 3, 1}, {8, 8, 1}};
    i64 scalars[] = {37};
    for (i64 lo = 0; lo < 3; ++lo) {
      PartitionTuple part = PartitionTuple::fromBlocks(
          GridPartition{{lo, lo / 2, 0}, {6, 3, 1}}, cfg.block);
      for (Enumerator e : es) {
        e.tier = EnumTier::Interpret;
        MaterializedRanges ref = e.materialize(part, cfg, scalars);
        e.tier = EnumTier::Bytecode;
        MaterializedRanges vm = e.materialize(part, cfg, scalars);
        EXPECT_EQ(ref.ranges, vm.ranges) << e.name() << " bytecode";
        EXPECT_EQ(ref.info, vm.info) << e.name() << " bytecode";
        e.tier = EnumTier::Specialized;
        MaterializedRanges spec = e.materialize(part, cfg, scalars);
        MaterializedRanges specHit = e.materialize(part, cfg, scalars);
        EXPECT_EQ(ref.ranges, spec.ranges) << e.name() << " specialized";
        EXPECT_EQ(ref.info, spec.info) << e.name() << " specialized";
        EXPECT_EQ(spec.ranges, specHit.ranges)
            << e.name() << " specialized cache hit";
        EXPECT_EQ(spec.info, specHit.info)
            << e.name() << " specialized cache hit";
      }
    }
  }
}

}  // namespace
}  // namespace polypart::codegen
