#pragma once

// A Set is a union of BasicSets over a common space (paper Section 2.4:
// "unions of Z-Polyhedra").  Exactness is tracked so clients can
// distinguish precise results from sound over-approximations.

#include <string>
#include <vector>

#include "pset/basic_set.h"

namespace polypart::pset {

enum class Tri { No, Yes, Unknown };

class Set {
 public:
  Set() = default;
  explicit Set(Space space) : space_(std::move(space)) {}

  static Set empty(Space space) { return Set(std::move(space)); }
  static Set universe(Space space) {
    Set s(space);
    s.parts_.emplace_back(std::move(space));
    return s;
  }

  const Space& space() const { return space_; }
  const std::vector<BasicSet>& parts() const { return parts_; }
  bool exact() const { return exact_; }
  void markInexact() { exact_ = false; }

  void addPart(BasicSet bs);

  /// Set difference `this \ o` by exact complement splitting: every
  /// subtrahend disjunct with constraints c_0..c_{k-1} splits each remaining
  /// disjunct A into the pairwise-disjoint pieces
  /// A ∩ c_0 ∩ .. ∩ c_{j-1} ∩ ¬c_j (over the integers ¬(e >= 0) is
  /// -e - 1 >= 0; an equality contributes both of its inequalities).  The
  /// disjunct count is capped; past the cap the offending subtrahend part is
  /// skipped and the result marked inexact — a sound *over*-approximation.
  /// The enumerator's convex-union proof (convexUnionNest in
  /// codegen/enumerator.cpp) needs an exactly empty difference, so it reads
  /// an inexact result as "not proven".
  Set subtract(const Set& o) const;

  /// Empty (definitely), NonEmpty (definitely over Z), or Unknown.
  Tri emptiness() const;

  bool containsPoint(std::span<const i64> params, std::span<const i64> ins,
                     std::span<const i64> outs = {}) const;

  /// Drops disjuncts whose infeasibility is certain.
  void pruneEmptyParts();

  std::string str() const;

 private:
  Space space_;
  std::vector<BasicSet> parts_;
  bool exact_ = true;
};

}  // namespace polypart::pset
