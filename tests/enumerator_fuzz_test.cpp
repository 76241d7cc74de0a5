// Differential fuzzing of the polyhedral range enumerators (paper Section 6)
// against brute-force instrumented execution.
//
// For each random kernel and random thread-block partition box, the oracle
// runs the *partitioned kernel clone* (ir::partitionKernel, Section 7) with
// the interpreter's access observer and collects the exact per-argument
// footprint — every flattened element each thread of the box touches.  The
// enumerator's coalesced ranges for the same box must then satisfy the
// contracts the runtime relies on:
//
//   - write enumerators are exact: range union == observed footprint,
//   - read enumerators are sound: range union is a superset of the observed
//     footprint, and equal when the enumerator reports exact(),
//   - full-row coalescing is a pure representation change: the element set
//     with `coalesce` on equals the set with it off, and for writes so does
//     the work accounting (EnumInfo),
//   - emitted ranges are well-formed (begin < end) and in-bounds.
//
// Seeds follow tests/fuzz_util.h; a failing case replays alone via
// POLYPART_FUZZ_SEED.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "analysis/analyze.h"
#include "codegen/enumerator.h"
#include "fuzz_kernels.h"
#include "fuzz_util.h"
#include "ir/interp.h"
#include "ir/transform.h"

namespace polypart::codegen {
namespace {

using fuzz::GeneratedKernel;

/// Observed footprint key: (kernel argument index, access direction).
using FootprintKey = std::pair<std::size_t, bool>;

void collectRanges(const Enumerator& e, const PartitionTuple& tuple,
                   const ir::LaunchConfig& cfg, std::span<const i64> scalars,
                   i64 elems, std::set<i64>* out, EnumInfo* info) {
  e.enumerate(tuple, cfg, scalars, [&](i64 begin, i64 end) {
    EXPECT_LT(begin, end) << e.name() << ": empty or inverted range";
    if (e.isWrite()) {
      // Write ranges feed tracker updates and must be exactly in-bounds;
      // over-approximated reads are clamped by the tracker query.
      EXPECT_GE(begin, 0) << e.name();
      EXPECT_LE(end, elems) << e.name() << ": write range past the array";
    }
    for (i64 i = begin; i < end; ++i) out->insert(i);
  }, info);
}

TEST(EnumeratorFuzz, RangesMatchObservedFootprint) {
  const int kernels = fuzz::caseCount(60);
  for (int kcase = 0; kcase < kernels; ++kcase) {
    fuzz::SeededRng rng(fuzz::seedFor(21, kcase));
    SCOPED_TRACE(rng.replay());
    GeneratedKernel g = fuzz::generate(rng, kcase);
    ir::Module mod;
    mod.addKernel(g.kernel);
    analysis::ApplicationModel model;
    try {
      model = analysis::analyzeModule(mod);
    } catch (const UnsupportedKernelError& e) {
      ADD_FAILURE() << "generated kernel rejected: " << e.what() << "\n"
                    << g.kernel->str();
      continue;
    }
    const analysis::KernelModel* km = model.find(g.kernel->name());
    ASSERT_NE(km, nullptr);
    std::vector<Enumerator> enumerators = buildEnumerators(*km);
    ASSERT_FALSE(enumerators.empty());

    // Sizes chosen so the grid has several blocks per used axis.
    const i64 n = g.is2d ? 17 : 200;
    const i64 elems = g.is2d ? n * n : n;
    ir::LaunchConfig cfg =
        g.is2d ? ir::LaunchConfig{{(n + 4) / 5, (n + 4) / 5, 1}, {5, 5, 1}}
               : ir::LaunchConfig{{(n + 63) / 64, 1, 1}, {64, 1, 1}};

    // The oracle executes the partitioned clone (grid = box extent, the six
    // box bounds appended as i64 scalars — the runtime's launch recipe).
    ir::KernelPtr clone = ir::partitionKernel(*g.kernel);
    std::vector<std::vector<double>> data(
        static_cast<std::size_t>(g.numInputs) + 1,
        std::vector<double>(static_cast<std::size_t>(elems), 1.0));
    const std::vector<i64> scalars = {n};

    for (int pcase = 0; pcase < 4; ++pcase) {
      ir::GridPartition gp;
      gp.lo = {0, 0, 0};
      gp.hi = {1, 1, 1};
      const i64 extents[3] = {cfg.grid.x, cfg.grid.y, cfg.grid.z};
      i64* lows[3] = {&gp.lo.x, &gp.lo.y, &gp.lo.z};
      i64* highs[3] = {&gp.hi.x, &gp.hi.y, &gp.hi.z};
      for (int axis = 0; axis < 3; ++axis) {
        if (extents[axis] <= 1) continue;
        *lows[axis] = rng.range(0, extents[axis] - 1);
        *highs[axis] = rng.range(*lows[axis] + 1, extents[axis]);
      }
      SCOPED_TRACE("partition [" + std::to_string(gp.lo.x) + "," +
                   std::to_string(gp.hi.x) + ")x[" + std::to_string(gp.lo.y) +
                   "," + std::to_string(gp.hi.y) + ")");

      std::map<FootprintKey, std::set<i64>> observed;
      {
        ir::LaunchConfig partCfg{{gp.hi.x - gp.lo.x, gp.hi.y - gp.lo.y,
                                  gp.hi.z - gp.lo.z},
                                 cfg.block};
        std::vector<ir::ArgValue> args;
        args.push_back(ir::ArgValue::ofInt(n));
        for (auto& buf : data)
          args.push_back(ir::ArgValue::ofBuffer(buf.data(), elems));
        for (i64 v : {gp.lo.x, gp.lo.y, gp.lo.z, gp.hi.x, gp.hi.y, gp.hi.z})
          args.push_back(ir::ArgValue::ofInt(v));
        ir::execute(*clone, partCfg, args,
                    [&](std::size_t argIndex, bool isWrite, i64 flatIndex,
                        std::span<const i64, 12>) {
                      observed[{argIndex, isWrite}].insert(flatIndex);
                    });
      }

      PartitionTuple tuple = PartitionTuple::fromBlocks(gp, cfg.block);
      for (Enumerator& e : enumerators) {
        SCOPED_TRACE(e.name());
        std::set<i64> coalesced, flat;
        EnumInfo coalescedInfo, flatInfo;
        e.coalesce = true;
        collectRanges(e, tuple, cfg, scalars, elems, &coalesced, &coalescedInfo);
        e.coalesce = false;
        collectRanges(e, tuple, cfg, scalars, elems, &flat, &flatInfo);
        e.coalesce = true;
        if (::testing::Test::HasFailure()) return;

        EXPECT_EQ(coalesced, flat)
            << "coalescing changed the enumerated element set";
        if (e.isWrite()) {
          // Exact writes merge into the same maximal runs either way, and
          // the paper's row count must not depend on how they were walked.
          EXPECT_EQ(coalescedInfo, flatInfo)
              << "coalescing changed the write work accounting\n"
              << g.kernel->str();
        }

        const std::set<i64>& truth = observed[{e.argIndex(), e.isWrite()}];
        if (e.isWrite()) {
          EXPECT_TRUE(e.exact()) << "write enumerators must be exact";
          EXPECT_EQ(coalesced, truth)
              << "write ranges diverge from the observed footprint\n"
              << g.kernel->str();
        } else {
          // Reads may over-approximate but never miss an element.
          for (i64 idx : truth) {
            if (!coalesced.count(idx)) {
              ADD_FAILURE() << "read enumerator missed element " << idx << "\n"
                            << g.kernel->str();
              break;
            }
          }
          if (e.exact()) {
            EXPECT_EQ(coalesced, truth)
                << "exact() read ranges diverge from the observed footprint\n"
                << g.kernel->str();
          }
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

/// Differential oracle over the execution tiers: for every random kernel
/// and partition box, the specializing VM must materialize byte-identical
/// ranges (same order, same endpoints) and identical work accounting to the
/// interpreter, with coalescing on and off.  The specialized tier runs
/// twice per key so both the fold-and-insert miss path and the
/// cached-program hit path are exercised.
TEST(EnumeratorFuzz, TiersMaterializeIdenticalRanges) {
  const int kernels = fuzz::caseCount(60);
  for (int kcase = 0; kcase < kernels; ++kcase) {
    fuzz::SeededRng rng(fuzz::seedFor(22, kcase));
    SCOPED_TRACE(rng.replay());
    GeneratedKernel g = fuzz::generate(rng, kcase);
    ir::Module mod;
    mod.addKernel(g.kernel);
    analysis::ApplicationModel model;
    try {
      model = analysis::analyzeModule(mod);
    } catch (const UnsupportedKernelError& e) {
      ADD_FAILURE() << "generated kernel rejected: " << e.what() << "\n"
                    << g.kernel->str();
      continue;
    }
    const analysis::KernelModel* km = model.find(g.kernel->name());
    ASSERT_NE(km, nullptr);
    std::vector<Enumerator> enumerators = buildEnumerators(*km);

    const i64 n = g.is2d ? 17 : 200;
    ir::LaunchConfig cfg =
        g.is2d ? ir::LaunchConfig{{(n + 4) / 5, (n + 4) / 5, 1}, {5, 5, 1}}
               : ir::LaunchConfig{{(n + 63) / 64, 1, 1}, {64, 1, 1}};
    const std::vector<i64> scalars = {n};

    for (int pcase = 0; pcase < 4; ++pcase) {
      ir::GridPartition gp;
      gp.lo = {0, 0, 0};
      gp.hi = {1, 1, 1};
      const i64 extents[3] = {cfg.grid.x, cfg.grid.y, cfg.grid.z};
      i64* lows[3] = {&gp.lo.x, &gp.lo.y, &gp.lo.z};
      i64* highs[3] = {&gp.hi.x, &gp.hi.y, &gp.hi.z};
      for (int axis = 0; axis < 3; ++axis) {
        if (extents[axis] <= 1) continue;
        *lows[axis] = rng.range(0, extents[axis] - 1);
        *highs[axis] = rng.range(*lows[axis] + 1, extents[axis]);
      }
      SCOPED_TRACE("partition [" + std::to_string(gp.lo.x) + "," +
                   std::to_string(gp.hi.x) + ")x[" + std::to_string(gp.lo.y) +
                   "," + std::to_string(gp.hi.y) + ")");

      PartitionTuple tuple = PartitionTuple::fromBlocks(gp, cfg.block);
      for (Enumerator& e : enumerators) {
        SCOPED_TRACE(e.name());
        for (bool coalesce : {true, false}) {
          e.coalesce = coalesce;
          e.tier = EnumTier::Interpret;
          MaterializedRanges ref = e.materialize(tuple, cfg, scalars);
          e.tier = EnumTier::Specialized;
          MaterializedRanges spec = e.materialize(tuple, cfg, scalars);
          MaterializedRanges specHit = e.materialize(tuple, cfg, scalars);
          e.tier = EnumTier::Interpret;
          e.coalesce = true;

          EXPECT_EQ(ref.ranges, spec.ranges)
              << "specialized program diverges (coalesce=" << coalesce
              << ")\n"
              << g.kernel->str();
          EXPECT_EQ(ref.info, spec.info) << "specialized work accounting";
          EXPECT_EQ(spec.ranges, specHit.ranges)
              << "cached specialized program diverges from its first run";
          EXPECT_EQ(spec.info, specHit.info);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace polypart::codegen
