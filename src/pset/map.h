#pragma once

// A Map is a union of basic relations (BasicSets whose space has output
// dimensions).  Memory access maps take thread-grid coordinates to array
// subscripts: Z^6 -> Z^d (paper Section 4.1).

#include <string>
#include <vector>

#include "pset/set.h"

namespace polypart::pset {

class Map {
 public:
  Map() = default;
  explicit Map(Space space) : space_(std::move(space)) {
    PP_ASSERT(!space_.isSet());
  }

  const Space& space() const { return space_; }
  const std::vector<BasicSet>& parts() const { return parts_; }
  bool exact() const { return exact_; }
  void markInexact() { exact_ = false; }
  bool isEmpty() const { return parts_.empty(); }

  void addPart(BasicSet bs);

  /// Intersects every disjunct with extra constraints (e.g. a partition box
  /// over the input dimensions, or a parameter context).
  Map intersect(const BasicSet& bs) const;

  /// Membership test for a concrete (params, in, out) triple.
  bool contains(std::span<const i64> params, std::span<const i64> ins,
                std::span<const i64> outs) const;

  std::string str() const;

 private:
  Space space_;
  std::vector<BasicSet> parts_;
  bool exact_ = true;
};

}  // namespace polypart::pset
