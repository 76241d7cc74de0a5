#include "pset/basic_set.h"

#include <algorithm>

#include "pset/fm_internal.h"
#include "support/str.h"

namespace polypart::pset {

BasicSet BasicSet::empty(Space space) {
  BasicSet s(std::move(space));
  // 0 >= 1 is unsatisfiable.
  LinExpr e(s.space_);
  e.addConstant(-1);
  s.addGe(std::move(e));
  s.markedEmpty_ = true;
  return s;
}

void BasicSet::add(Constraint c) {
  PP_ASSERT(c.expr.cols() == space_.cols());
  constraints_.push_back(std::move(c));
}

void BasicSet::addBounds(DimId d, const LinExpr& lo, const LinExpr& hi) {
  LinExpr dim = LinExpr::dim(space_, d);
  addGe(dim - lo);                      // dim - lo >= 0
  addGe(hi - dim + LinExpr::constant(space_, -1));  // hi - dim - 1 >= 0  (dim < hi)
}

void BasicSet::simplify() {
  // simplifyRows rewrites rows in place and may throw OverflowError midway;
  // working on a copy leaves the set unchanged when it does (moving the rows
  // out would leave no constraints behind, i.e. the universe).
  detail::Rows r{constraints_, markedEmpty_};
  detail::simplifyRows(r);
  constraints_ = std::move(r.rows);
  markedEmpty_ = r.empty;
  if (markedEmpty_) {
    constraints_.clear();
    LinExpr e(space_);
    e.addConstant(-1);
    constraints_.push_back(Constraint::ge(std::move(e)));
  }
}

BasicSet BasicSet::intersect(const BasicSet& o) const {
  PP_ASSERT(space_ == o.space_);
  BasicSet out = *this;
  out.constraints_.insert(out.constraints_.end(), o.constraints_.begin(),
                          o.constraints_.end());
  out.markedEmpty_ = markedEmpty_ || o.markedEmpty_;
  return out;
}

Proj BasicSet::projectOut(DimKind kind, std::size_t first,
                                    std::size_t count) const {
  std::vector<bool> elim(space_.cols(), false);
  for (std::size_t i = 0; i < count; ++i)
    elim[space_.col(DimId{kind, first + i})] = true;

  detail::ElimResult er = detail::eliminateColumns(constraints_, elim);

  // Build the reduced space and the column remapping.
  auto dropRange = [&](const std::vector<std::string>& names, DimKind k) {
    std::vector<std::string> kept;
    for (std::size_t i = 0; i < names.size(); ++i)
      if (k != kind || i < first || i >= first + count) kept.push_back(names[i]);
    return kept;
  };
  Space reduced = Space::map(dropRange(space_.paramNames(), DimKind::Param),
                             dropRange(space_.inNames(), DimKind::In),
                             dropRange(space_.outNames(), DimKind::Out));

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> colMap(space_.cols(), npos);
  colMap[0] = 0;
  std::size_t nextCol = 1;
  for (std::size_t c = 1; c < space_.cols(); ++c)
    if (!elim[c]) colMap[c] = nextCol++;
  PP_ASSERT(nextCol == reduced.cols());

  BasicSet out(reduced);
  out.markedEmpty_ = er.empty;
  if (er.empty) {
    out = BasicSet::empty(reduced);
  } else {
    for (const Constraint& c : er.rows)
      out.constraints_.push_back(
          Constraint{c.expr.remapped(colMap, reduced.cols()), c.isEquality});
  }
  return {std::move(out), er.exact};
}

BasicSet::Feas BasicSet::feasibility() const {
  std::vector<bool> elim(space_.cols(), false);
  for (std::size_t c = 1; c < space_.cols(); ++c) elim[c] = true;
  detail::ElimResult er = detail::eliminateColumns(constraints_, elim);
  if (er.empty) return Feas::Empty;
  return er.exact ? Feas::NonEmpty : Feas::Unknown;
}

bool BasicSet::containsPoint(std::span<const i64> params,
                             std::span<const i64> ins,
                             std::span<const i64> outs) const {
  PP_ASSERT(params.size() == space_.numParams() && ins.size() == space_.numIn() &&
            outs.size() == space_.numOut());
  std::vector<i64> values;
  values.reserve(space_.cols());
  values.push_back(1);
  values.insert(values.end(), params.begin(), params.end());
  values.insert(values.end(), ins.begin(), ins.end());
  values.insert(values.end(), outs.begin(), outs.end());
  for (const Constraint& c : constraints_) {
    i64 v = detail::evalRow(c.expr, values);
    if (c.isEquality ? v != 0 : v < 0) return false;
  }
  return true;
}

BasicSet BasicSet::alignToSpace(const Space& wider) const {
  PP_ASSERT(wider.numIn() == space_.numIn() && wider.numOut() == space_.numOut());
  PP_ASSERT(wider.numParams() >= space_.numParams());
  // Existing parameters must map to the leading parameters of `wider`.
  for (std::size_t i = 0; i < space_.numParams(); ++i)
    PP_ASSERT(wider.paramNames()[i] == space_.paramNames()[i]);

  std::vector<std::size_t> colMap(space_.cols());
  colMap[0] = 0;
  for (std::size_t c = 1; c < space_.cols(); ++c) {
    DimId d = space_.dimAt(c);
    colMap[c] = wider.col(d);
  }
  BasicSet out(wider);
  out.markedEmpty_ = markedEmpty_;
  for (const Constraint& c : constraints_)
    out.constraints_.push_back(
        Constraint{c.expr.remapped(colMap, wider.cols()), c.isEquality});
  return out;
}

namespace {

std::string exprStr(const Space& space, const LinExpr& e) {
  std::string out;
  bool first = true;
  for (std::size_t c = 1; c < space.cols(); ++c) {
    i64 v = e[c];
    if (v == 0) continue;
    const std::string& name = space.name(space.dimAt(c));
    if (first) {
      if (v == -1) out += "-";
      else if (v != 1) out += std::to_string(v) + "*";
      first = false;
    } else {
      out += v > 0 ? " + " : " - ";
      i64 mag = v > 0 ? v : -v;
      if (mag != 1) out += std::to_string(mag) + "*";
    }
    out += name;
  }
  i64 k = e.constantTerm();
  if (first) {
    out += std::to_string(k);
  } else if (k != 0) {
    out += k > 0 ? " + " : " - ";
    out += std::to_string(k > 0 ? k : -k);
  }
  return out;
}

}  // namespace

std::string BasicSet::str() const {
  std::string out;
  if (space_.numParams() > 0)
    out += "[" + join(space_.paramNames(), ", ") + "] -> ";
  out += "{ [" + join(space_.inNames(), ", ") + "]";
  if (!space_.isSet()) out += " -> [" + join(space_.outNames(), ", ") + "]";
  if (!constraints_.empty()) {
    out += " : ";
    std::vector<std::string> parts;
    for (const Constraint& c : constraints_)
      parts.push_back(exprStr(space_, c.expr) + (c.isEquality ? " = 0" : " >= 0"));
    out += join(parts, " and ");
  }
  out += " }";
  return out;
}

}  // namespace polypart::pset
