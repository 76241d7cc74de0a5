#pragma once

// Loop-nest generation from polyhedral sets (the isl AST analogue, paper
// Section 6.1).
//
// A ScanNest enumerates the integer points of one BasicSet over its set
// dimensions: every dimension but the innermost becomes a `for` loop with
// affine lower/upper bound expressions (max of lowers / min of uppers,
// with ceil/floor divisions for non-unit coefficients); the innermost
// dimension is emitted as a contiguous [lo, hi] range, which is exactly the
// paper's "enumerate only the first and last element of each row" scheme.
//
// All expressions are closed-form (Section 6.1: "polyhedral expressions ...
// can be computed in constant time") and are evaluated against a runtime
// parameter vector.  Scanning is exact: every original constraint of the set
// is applied at the level of its deepest dimension, so over-approximate
// intermediate projections only cost empty iterations, never wrong points.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "pset/basic_set.h"

namespace polypart::pset {

/// Closed-form integer expression tree over runtime parameters and the
/// enclosing loop variables.
class AstExpr {
 public:
  enum class Kind {
    Const,     // value
    Param,     // params[index]
    LoopVar,   // loop variable of nest level `index`
    Add, Sub, Mul,
    FloorDiv, CeilDiv,  // kids[0] / kids[1] with floor/ceil rounding
    Neg,
    Min, Max,  // n-ary
  };

  AstExpr() : kind_(Kind::Const), value_(0) {}

  static AstExpr constant(i64 v);
  static AstExpr param(std::size_t index);
  static AstExpr loopVar(std::size_t level);
  static AstExpr add(AstExpr a, AstExpr b);
  static AstExpr sub(AstExpr a, AstExpr b);
  static AstExpr mul(AstExpr a, AstExpr b);
  static AstExpr floorDiv(AstExpr a, i64 d);
  static AstExpr ceilDiv(AstExpr a, i64 d);
  static AstExpr neg(AstExpr a);
  /// max(exprs...) — used for lower bounds; must be non-empty.
  static AstExpr maxOf(std::vector<AstExpr> exprs);
  /// min(exprs...) — used for upper bounds; must be non-empty.
  static AstExpr minOf(std::vector<AstExpr> exprs);

  Kind kind() const { return kind_; }
  i64 value() const { return value_; }
  std::size_t index() const { return index_; }
  const std::vector<AstExpr>& kids() const { return kids_; }

  bool isConst() const { return kind_ == Kind::Const; }

  /// True when no LoopVar node with level >= `minLevel` occurs; used by the
  /// full-row coalescing optimization.
  bool independentOfLoopsFrom(std::size_t minLevel) const;

  i64 eval(std::span<const i64> params, std::span<const i64> loopVars) const;

  /// Partial evaluation for one parameter vector: `Param` nodes become
  /// constants and every operation whose operands are all constant folds.
  /// Folding uses non-throwing overflow probes and keeps an operation that
  /// would overflow, so eval() of the result throws where and when eval() of
  /// this tree would (bounds are evaluated lazily: a bound never reached
  /// must not throw here either).  Min/Max fold their constant prefix, left
  /// to right.  LoopVar nodes are never removed, so independentOfLoopsFrom()
  /// of the result equals that of this tree at every level.  Folded nodes
  /// are built directly, not through the simplifying factories (mul() turns
  /// `x * 0` into 0, which would drop a loop variable).
  AstExpr specialize(std::span<const i64> params) const;

  /// C-like rendering, e.g. "max(0, p3 - 1)"; loop vars print as d0, d1, ...
  std::string str(const std::vector<std::string>& paramNames = {}) const;

 private:
  Kind kind_;
  i64 value_ = 0;
  std::size_t index_ = 0;
  std::vector<AstExpr> kids_;
};

/// One loop level: the variable ranges over [max(lowers), min(uppers)]
/// (inclusive).
struct ScanLevel {
  AstExpr lower;
  AstExpr upper;
};

/// Loop nest scanning one BasicSet.
struct ScanNest {
  /// Parameter-only conditions; the nest runs only when all evaluate >= 0.
  std::vector<AstExpr> guards;
  /// One level per set dimension, outermost first.  The last level is not a
  /// loop: its bounds delimit the emitted row range.
  std::vector<ScanLevel> levels;
};

/// Builds the scan nest for a basic set over its input (set) dimensions.
/// Output dimensions must have been projected away.  Throws
/// UnsupportedKernelError when some dimension has no lower or no upper bound
/// (the set is unbounded and cannot be enumerated).
ScanNest buildScan(const BasicSet& set);

/// Row callback: coordinates of the outer dimensions plus the inclusive
/// [lo, hi] range of the innermost dimension.
using RowCallback =
    std::function<void(std::span<const i64> outerCoords, i64 lo, i64 hi)>;

/// Executes the nest, invoking `cb` once per non-empty row.
void scanRows(const ScanNest& nest, std::span<const i64> params,
              const RowCallback& cb);

/// Renders the nest as C source (used by the enumerator pretty-printer and
/// for debugging generated "code").
std::string scanToC(const ScanNest& nest,
                    const std::vector<std::string>& paramNames,
                    const std::string& callbackName);

}  // namespace polypart::pset
