#include "pset/map.h"

#include "support/str.h"

namespace polypart::pset {

void Map::addPart(BasicSet bs) {
  PP_ASSERT(bs.space() == space_);
  if (bs.markedEmpty()) return;
  parts_.push_back(std::move(bs));
}

Map Map::unionWith(const Map& o) const {
  PP_ASSERT(space_ == o.space_);
  Map out = *this;
  out.parts_.insert(out.parts_.end(), o.parts_.begin(), o.parts_.end());
  out.exact_ = exact_ && o.exact_;
  return out;
}

Map Map::intersect(const BasicSet& bs) const {
  Map out(space_);
  out.exact_ = exact_;
  for (const BasicSet& part : parts_) {
    BasicSet c = part.intersect(bs);
    c.simplify();
    if (!c.markedEmpty()) out.parts_.push_back(std::move(c));
  }
  return out;
}

Set Map::range() const {
  Set out(space_.rangeSpace());
  if (!exact_) out.markInexact();
  for (const BasicSet& part : parts_) {
    Proj p = part.projectOut(DimKind::In, 0, space_.numIn());
    if (!p.exact) out.markInexact();
    // The projected space still carries empty "in" lists; rebuild over the
    // canonical range space.
    if (!p.set.markedEmpty()) {
      BasicSet aligned(out.space());
      for (const Constraint& c : p.set.constraints())
        aligned.add(c);
      out.addPart(std::move(aligned));
    }
  }
  return out;
}

Set Map::domain() const {
  Set out(space_.domainSpace());
  if (!exact_) out.markInexact();
  for (const BasicSet& part : parts_) {
    Proj p = part.projectOut(DimKind::Out, 0, space_.numOut());
    if (!p.exact) out.markInexact();
    if (!p.set.markedEmpty()) {
      BasicSet aligned(out.space());
      for (const Constraint& c : p.set.constraints())
        aligned.add(c);
      out.addPart(std::move(aligned));
    }
  }
  return out;
}

Tri Map::isInjective(const BasicSet& context) const {
  const std::size_t nIn = space_.numIn();
  const std::size_t nOut = space_.numOut();

  // Conflict space: params -> [in, in'] -> [out].
  std::vector<std::string> ins2 = space_.inNames();
  for (const std::string& n : space_.inNames()) ins2.push_back(n + "'");
  Space conflictSpace =
      Space::map(space_.paramNames(), std::move(ins2), space_.outNames());

  // Re-embeds a part's constraints with its input dims shifted by `offset`.
  auto embed = [&](const BasicSet& part, std::size_t offset) {
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> colMap(space_.cols(), npos);
    colMap[0] = 0;
    for (std::size_t p = 0; p < space_.numParams(); ++p)
      colMap[space_.col(DimId::param(p))] = conflictSpace.col(DimId::param(p));
    for (std::size_t i = 0; i < nIn; ++i)
      colMap[space_.col(DimId::in(i))] = conflictSpace.col(DimId::in(i + offset));
    for (std::size_t o = 0; o < nOut; ++o)
      colMap[space_.col(DimId::out(o))] = conflictSpace.col(DimId::out(o));
    BasicSet out(conflictSpace);
    for (const Constraint& c : part.constraints())
      out.add(Constraint{c.expr.remapped(colMap, conflictSpace.cols()), c.isEquality});
    return out;
  };

  BasicSet contextEmbedded(conflictSpace);
  {
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> colMap(context.space().cols(), npos);
    colMap[0] = 0;
    for (std::size_t p = 0; p < context.space().numParams(); ++p) {
      std::size_t idx = conflictSpace.paramIndex(context.space().paramNames()[p]);
      PP_ASSERT_MSG(idx != Space::npos, "context parameter missing from map space");
      colMap[context.space().col(DimId::param(p))] =
          conflictSpace.col(DimId::param(idx));
    }
    for (const Constraint& c : context.constraints())
      contextEmbedded.add(
          Constraint{c.expr.remapped(colMap, conflictSpace.cols()), c.isEquality});
  }

  for (std::size_t a = 0; a < parts_.size(); ++a) {
    for (std::size_t b = a; b < parts_.size(); ++b) {
      BasicSet base = embed(parts_[a], 0)
                          .intersect(embed(parts_[b], nIn))
                          .intersect(contextEmbedded);
      // Distinct inputs: some dimension differs.  Check each strict
      // difference disjunct separately.
      for (std::size_t d = 0; d < nIn; ++d) {
        for (int dir = 0; dir < 2; ++dir) {
          BasicSet q = base;
          LinExpr diff = LinExpr::dim(conflictSpace, DimId::in(d)) -
                         LinExpr::dim(conflictSpace, DimId::in(d + nIn));
          // dir 0: in_d <= in'_d - 1; dir 1: in_d >= in'_d + 1.
          if (dir == 0) diff = -std::move(diff);
          diff.addConstant(-1);
          q.addGe(std::move(diff));
          q.simplify();
          if (q.markedEmpty()) continue;
          switch (q.feasibility()) {
            case BasicSet::Feas::Empty: break;
            case BasicSet::Feas::NonEmpty: return Tri::No;
            case BasicSet::Feas::Unknown: return Tri::Unknown;
          }
        }
      }
    }
  }
  return Tri::Yes;
}

bool Map::contains(std::span<const i64> params, std::span<const i64> ins,
                   std::span<const i64> outs) const {
  for (const BasicSet& part : parts_)
    if (part.containsPoint(params, ins, outs)) return true;
  return false;
}

std::string Map::str() const {
  if (parts_.empty()) {
    std::string out;
    if (space_.numParams() > 0) out += "[" + join(space_.paramNames(), ", ") + "] -> ";
    return out + "{ }";
  }
  std::vector<std::string> parts;
  for (const BasicSet& p : parts_) parts.push_back(p.str());
  return join(parts, " union ");
}

}  // namespace polypart::pset
