#pragma once

// A BasicSet is a conjunction of affine constraints over a Space: the integer
// points of one Z-polyhedron (paper Section 2.4).  Map semantics are obtained
// by giving the space output dimensions; a "point" is then an (in, out) pair.
//
// Projection uses Fourier-Motzkin elimination.  Eliminating an existentially
// quantified integer dimension is not always exactly representable without
// divisibility constraints, so projection reports whether the result is exact
// or a (sound) over-approximation.  The analysis uses this to accept
// over-approximated *read* maps but reject kernels whose *write* maps would
// become approximate (paper Section 4.1).

#include <span>
#include <string>
#include <vector>

#include "pset/linexpr.h"
#include "pset/space.h"

namespace polypart::pset {

class BasicSet;

/// Result of a projection: the reduced set plus whether it is integer-exact.
struct Proj;

class BasicSet {
 public:
  BasicSet() = default;

  /// The universe set (no constraints) over `space`.
  explicit BasicSet(Space space) : space_(std::move(space)) {}

  /// A trivially empty set over `space`.
  static BasicSet empty(Space space);

  const Space& space() const { return space_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  std::size_t numConstraints() const { return constraints_.size(); }

  /// Adds a constraint (no simplification).
  void add(Constraint c);
  void addEq(LinExpr e) { add(Constraint::eq(std::move(e))); }
  /// Adds `e >= 0`.
  void addGe(LinExpr e) { add(Constraint::ge(std::move(e))); }
  /// Adds `lo <= dim < hi` where lo/hi are affine expressions.
  void addBounds(DimId d, const LinExpr& lo, const LinExpr& hi);

  /// True when simplification detected a constant contradiction.
  bool markedEmpty() const { return markedEmpty_; }

  /// Normalizes constraints: gcd reduction with integer bound tightening,
  /// duplicate removal, parallel-bound strengthening, contradiction marking.
  void simplify();

  /// Conjunction of two basic sets over the same space.
  BasicSet intersect(const BasicSet& o) const;

  /// Existentially projects out `count` dimensions of `kind` starting at
  /// `first`.  The dimensions are removed from the resulting space.
  Proj projectOut(DimKind kind, std::size_t first, std::size_t count) const;

  enum class Feas { Empty, NonEmpty, Unknown };

  /// Decides feasibility over the integers where possible.  `Empty` and
  /// `NonEmpty` are definite; `Unknown` means rationally feasible but the
  /// elimination lost integer exactness.
  Feas feasibility() const;

  /// Evaluates membership of a concrete point (test/verification helper).
  bool containsPoint(std::span<const i64> params, std::span<const i64> ins,
                     std::span<const i64> outs) const;

  /// Replaces the space with an extended one that has extra parameters
  /// appended; constraint rows are widened with zero coefficients.
  BasicSet alignToSpace(const Space& wider) const;

  /// isl-style textual form, e.g. "[N] -> { [i] : 0 <= i and i < N }".
  std::string str() const;

 private:
  Space space_;
  std::vector<Constraint> constraints_;
  bool markedEmpty_ = false;
};

struct Proj {
  BasicSet set;
  bool exact;
};

}  // namespace polypart::pset
