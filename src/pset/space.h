#pragma once

// Dimension spaces for polyhedral sets and maps.
//
// A Space names three groups of dimensions:
//   - parameters: symbolic constants (block dimensions, scalar kernel
//     arguments, partition bounds),
//   - input dimensions: for sets these are the set dimensions; for maps the
//     domain (thread-grid coordinates),
//   - output dimensions: the map range (array subscripts); empty for sets.
//
// Constraint rows are stored over a fixed column layout:
//   column 0            : the constant term
//   columns 1..p        : parameters
//   columns p+1..p+n    : input dimensions
//   columns p+n+1..     : output dimensions

#include <cstddef>
#include <string>
#include <vector>

#include "support/error.h"

namespace polypart::pset {

enum class DimKind { Param, In, Out };

/// Identifies one dimension within a space.
struct DimId {
  DimKind kind;
  std::size_t index;

  static DimId param(std::size_t i) { return {DimKind::Param, i}; }
  static DimId in(std::size_t i) { return {DimKind::In, i}; }
  static DimId out(std::size_t i) { return {DimKind::Out, i}; }

  bool operator==(const DimId&) const = default;
};

class Space {
 public:
  Space() = default;

  /// Creates a set space: `params` and set dimensions `ins`.
  static Space set(std::vector<std::string> params, std::vector<std::string> ins) {
    Space s;
    s.params_ = std::move(params);
    s.ins_ = std::move(ins);
    return s;
  }

  /// Creates a map space.
  static Space map(std::vector<std::string> params, std::vector<std::string> ins,
                   std::vector<std::string> outs) {
    Space s;
    s.params_ = std::move(params);
    s.ins_ = std::move(ins);
    s.outs_ = std::move(outs);
    return s;
  }

  std::size_t numParams() const { return params_.size(); }
  std::size_t numIn() const { return ins_.size(); }
  std::size_t numOut() const { return outs_.size(); }
  std::size_t numDims() const { return ins_.size() + outs_.size(); }
  bool isSet() const { return outs_.empty(); }

  /// Total number of row columns including the constant column.
  std::size_t cols() const { return 1 + numParams() + numDims(); }

  /// Column index of a dimension in constraint rows.
  std::size_t col(DimId d) const {
    switch (d.kind) {
      case DimKind::Param:
        PP_ASSERT(d.index < numParams());
        return 1 + d.index;
      case DimKind::In:
        PP_ASSERT(d.index < numIn());
        return 1 + numParams() + d.index;
      case DimKind::Out:
        PP_ASSERT(d.index < numOut());
        return 1 + numParams() + numIn() + d.index;
    }
    PP_ASSERT(false);
    return 0;
  }

  /// Inverse of col() for non-constant columns.
  DimId dimAt(std::size_t column) const {
    PP_ASSERT(column >= 1 && column < cols());
    std::size_t i = column - 1;
    if (i < numParams()) return DimId::param(i);
    i -= numParams();
    if (i < numIn()) return DimId::in(i);
    return DimId::out(i - numIn());
  }

  const std::string& name(DimId d) const {
    switch (d.kind) {
      case DimKind::Param: return params_[d.index];
      case DimKind::In: return ins_[d.index];
      case DimKind::Out: return outs_[d.index];
    }
    PP_ASSERT(false);
    return params_[0];
  }

  const std::vector<std::string>& paramNames() const { return params_; }
  const std::vector<std::string>& inNames() const { return ins_; }
  const std::vector<std::string>& outNames() const { return outs_; }

  /// Index of a parameter by name, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t paramIndex(const std::string& name) const {
    for (std::size_t i = 0; i < params_.size(); ++i)
      if (params_[i] == name) return i;
    return npos;
  }

  /// Returns a copy with `extra` parameters appended.
  Space addParams(const std::vector<std::string>& extra) const {
    Space s = *this;
    s.params_.insert(s.params_.end(), extra.begin(), extra.end());
    return s;
  }

  bool operator==(const Space&) const = default;

 private:
  std::vector<std::string> params_;
  std::vector<std::string> ins_;
  std::vector<std::string> outs_;
};

}  // namespace polypart::pset
