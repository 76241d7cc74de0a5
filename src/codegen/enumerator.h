#pragma once

// Polyhedral code generation for buffer synchronization (paper Section 6).
//
// For every (kernel, array argument, read/write) triple, an Enumerator is
// generated from the access map: given a thread-grid partition it produces
// the flattened element ranges the partition accesses, enumerating "only the
// first and last element of each row" (Section 6.1) and reporting them
// through a callback to avoid dynamic allocation (Section 6.2).
//
// The paper lowers the isl AST to LLVM IR functions; here the same AST
// (pset::ScanNest) is executed by a small evaluator, and emitC() renders the
// function a native backend would compile.  The `Specialized` tier (see
// EnumTier) closes most of that gap without a JIT: it partially evaluates the
// scan nests against each parameter vector once and walks the folded trees.
//
// Parameter ABI (Section 6.2: "arrays of 64-bit integers"):
//   partition: 12 values — lower bounds of the six map inputs
//              (boxLo, boyLo, bozLo, bxLo, byLo, bzLo) then exclusive upper
//              bounds in the same order,
//   launch:    6 values — blockDim x/y/z then gridDim x/y/z,
//   scalars:   the kernel's i64 scalar arguments in declaration order.
//
// An optimization beyond the paper's scheme: when every inner dimension of a
// row range covers its full extent and is independent of the outer loop
// variable, whole loop levels collapse into one contiguous flattened range
// ("full-row coalescing").  This turns the per-iteration dependency
// resolution of a 36k x 36k stencil from tens of thousands of callbacks into
// one.  bench/ablation_coalescing measures the effect; disable with
// `coalesce = false`.
//
// Exact writes cannot use the read path's rectangular hull, so a
// multi-disjunct write map (a stencil's interior plus its borders) would be
// walked one partial row per disjunct.  At construction the enumerator
// instead tries to prove that the disjuncts' union is one convex set C (see
// Enumerator::Enumerator); when the proof holds, coalesced enumeration emits
// through C's nest in O(1) ranges per partition and counts the paper's
// per-disjunct rows in closed form.

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/model.h"
#include "ir/interp.h"
#include "ir/transform.h"
#include "pset/ast.h"
#include "support/small_vec.h"

namespace polypart::codegen {

/// Which engine enumerate()/materialize() walk (DESIGN.md "Execution
/// tiers").  Both tiers are byte-identical in emitted ranges, work
/// accounting and error behaviour; `Interpret` is the paper-mode default.
enum class EnumTier {
  Interpret,    ///< walk the scan-nest ASTs as built (paper mode)
  Specialized,  ///< walk the ASTs folded once per parameter vector
                ///< (AstExpr::specialize) and cached
};

const char* enumTierName(EnumTier t);

/// The 6-dimensional partition box of Section 6: per map input dimension a
/// half-open [lo, hi) interval, inputs ordered (box, boy, boz, bx, by, bz).
struct PartitionTuple {
  std::array<i64, 6> lo{};
  std::array<i64, 6> hi{};

  /// Derives the tuple from a thread-block partition: blockOff bounds are
  /// blockIdx bounds scaled by blockDim (the runtime guarantees
  /// blockOff = blockIdx * blockDim, Section 4.1).
  static PartitionTuple fromBlocks(const ir::GridPartition& p, const ir::Dim3& blockDim);
};

/// Callback receiving one flattened half-open element range [begin, end).
using RangeFn = std::function<void(i64 begin, i64 end)>;

/// Hashable identity of one enumeration request: the launch configuration,
/// the 6-dimensional partition box, and the i64 scalar arguments, flattened
/// in the Section 6.2 ABI order.  enumerate() is a pure function of these
/// values (plus the enumerator's compile-time state), so equal keys yield
/// identical range lists — the property the runtime's launch-plan cache
/// relies on.
struct EnumerationKey {
  std::vector<i64> words;

  static EnumerationKey of(const PartitionTuple& partition,
                           const ir::LaunchConfig& cfg,
                           std::span<const i64> scalars);
  bool operator==(const EnumerationKey&) const = default;
};

/// FNV-1a over the key words (launch shapes per application are few; this
/// only needs to separate them cheaply).  Transparent: a raw word span in
/// the same ABI order hashes identically, so the Specialized tier's cache
/// can probe with the enumerator's already-built parameter vector instead of
/// materializing a key per lookup.
struct EnumerationKeyHash {
  using is_transparent = void;
  std::size_t operator()(std::span<const i64> words) const;
  std::size_t operator()(const EnumerationKey& k) const {
    return (*this)(std::span<const i64>(k.words));
  }
};

/// Work accounting for one enumeration: `ranges` is the number of callback
/// invocations after coalescing/merging; `logicalRows` is the number of row
/// ranges the paper's uncoalesced scheme (first/last element of each array
/// row, Section 6.1) would have produced — the runtime charges modeled
/// dependency-resolution time on this quantity so the overhead analysis
/// reflects the published system rather than our coalescing optimization.
struct EnumInfo {
  i64 ranges = 0;
  i64 logicalRows = 0;

  bool operator==(const EnumInfo&) const = default;
};

/// One enumerator's output materialized for replay: the coalesced ranges in
/// emission order plus the work accounting a live enumerate() call would
/// have reported.  Stored by the runtime's enumeration cache.
struct MaterializedRanges {
  std::vector<std::pair<i64, i64>> ranges;
  EnumInfo info;
};

class Enumerator {
 public:
  /// Builds the enumerator for one access map of a kernel model.
  /// Throws UnsupportedKernelError when a write map would be enumerated
  /// approximately (reads may over-approximate).
  Enumerator(const analysis::KernelModel& model, const analysis::ArrayModel& array,
             bool isWrite);

  /// The interface name, "<kernel>_arg<i>_<read|write>" (Section 6.2).
  const std::string& name() const { return name_; }
  bool isWrite() const { return isWrite_; }
  std::size_t argIndex() const { return argIndex_; }
  std::size_t rank() const { return rank_; }
  /// False when the enumerated ranges over-approximate the true access set.
  bool exact() const { return exact_; }
  /// Full-row coalescing switch (on by default; ablation knob).
  bool coalesce = true;
  /// Execution tier (see EnumTier).  Both tiers emit byte-identical ranges
  /// and work accounting; `Interpret` walks the scan nests (paper mode),
  /// `Specialized` folds them against each parameter vector on first sight
  /// and caches the folded nests under its EnumerationKey.
  EnumTier tier = EnumTier::Interpret;

  /// Enumerates the element ranges accessed by `partition`.  Ranges are
  /// emitted in non-decreasing order per disjunct and adjacent ranges are
  /// merged; disjuncts of a union map may overlap (the tracker tolerates
  /// duplicates, Section 6.1).
  ///
  /// enumerate()/materialize() read only the enumerator's
  /// compile-time state (nests, shape rows, `coalesce`, `tier`) and keep all
  /// evaluation scratch on the stack; the only mutable state they touch is
  /// the Specialized tier's cache of folded nests, which is shared across
  /// copies of the enumerator.
  void enumerate(const PartitionTuple& partition, const ir::LaunchConfig& cfg,
                 std::span<const i64> scalars, const RangeFn& emit,
                 EnumInfo* info = nullptr) const;

  /// Runs enumerate() once and records the emitted ranges for later replay
  /// under the same EnumerationKey.
  MaterializedRanges materialize(const PartitionTuple& partition,
                                 const ir::LaunchConfig& cfg,
                                 std::span<const i64> scalars) const;

  /// Renders the generated function as C source (the shape a native backend
  /// would compile; used by documentation and tests).
  std::string emitC() const;

 private:
  /// Parameter vectors are short (6 launch words + scalars + 12 partition
  /// words) and built on every enumerate() call; inline storage keeps the
  /// hot path allocation-free.
  using ParamVec = support::SmallVec<i64, 32>;

  ParamVec buildParams(const PartitionTuple& partition,
                       const ir::LaunchConfig& cfg,
                       std::span<const i64> scalars) const;
  /// Specialized-tier cache lookup: returns nests_ (then convex_, when
  /// proven) folded for `params`, folding and inserting (FIFO-bounded) on a
  /// miss.
  std::shared_ptr<const std::vector<pset::ScanNest>> specializedFor(
      std::span<const i64> params) const;

  std::string name_;
  std::size_t argIndex_ = 0;
  bool isWrite_ = false;
  std::size_t rank_ = 1;
  bool exact_ = true;
  std::size_t numModelParams_ = 0;           // 6 + #scalars
  std::vector<pset::ScanNest> nests_;        // one per disjunct
  /// Scan nest of the union of a multi-disjunct write map, present only when
  /// the union is proven to be one convex set.  Used with `coalesce` on (see
  /// enumerate()).
  std::optional<pset::ScanNest> convex_;
  /// Whether a runtime rectangular hull over the disjuncts may be used
  /// (read maps with uniform rank); see enumerate().
  bool hullable_ = false;
  std::vector<pset::LinExpr> shapeRows_;     // over the model param space
  std::vector<std::string> paramNames_;      // extended space, for emitC
  /// Specialized-tier cache of folded nests (keyed by EnumerationKey,
  /// FIFO-bounded, mutex-guarded); shared across copies of the enumerator
  /// (Enumerator is copyable; the folded nests are immutable).
  struct SpecCache;
  std::shared_ptr<SpecCache> specCache_;
};

/// Builds all enumerators of a kernel model (reads and writes for every
/// array argument that has them).
std::vector<Enumerator> buildEnumerators(const analysis::KernelModel& model);

}  // namespace polypart::codegen
