#include "pset/set.h"

#include "support/str.h"

namespace polypart::pset {

void Set::addPart(BasicSet bs) {
  PP_ASSERT(bs.space() == space_);
  if (bs.markedEmpty()) return;
  parts_.push_back(std::move(bs));
}

Set Set::subtract(const Set& o) const {
  PP_ASSERT(space_ == o.space_);
  // Complement splitting multiplies disjuncts; past this cap the subtrahend
  // part is skipped, leaving a sound over-approximation (see set.h).
  constexpr std::size_t kMaxParts = 256;
  Set out = *this;
  out.exact_ = exact_ && o.exact_;
  out.pruneEmptyParts();
  for (const BasicSet& b : o.parts_) {
    if (out.parts_.empty()) break;
    if (b.markedEmpty()) continue;
    // The complement of b as a sequence of negatable inequalities; an
    // equality e == 0 contributes e >= 0 and -e >= 0.
    std::vector<LinExpr> ineqs;
    for (const Constraint& c : b.constraints()) {
      ineqs.push_back(c.expr);
      if (c.isEquality) ineqs.push_back(-c.expr);
    }
    std::vector<BasicSet> next;
    bool overflow = false;
    for (const BasicSet& a : out.parts_) {
      BasicSet prefix = a;  // a ∩ c_0 ∩ .. ∩ c_{j-1}
      for (std::size_t j = 0; j < ineqs.size(); ++j) {
        BasicSet piece = prefix;
        LinExpr neg = -ineqs[j];
        neg.addConstant(-1);  // ¬(e >= 0)  ≡  -e - 1 >= 0 over Z
        piece.addGe(std::move(neg));
        piece.simplify();
        if (!piece.markedEmpty() &&
            piece.feasibility() != BasicSet::Feas::Empty)
          next.push_back(std::move(piece));
        if (j + 1 < ineqs.size()) {
          prefix.addGe(ineqs[j]);
          prefix.simplify();
          if (prefix.markedEmpty()) break;
        }
      }
      if (next.size() > kMaxParts) {
        overflow = true;
        break;
      }
    }
    if (overflow) {
      out.exact_ = false;  // keep the remainder un-split for this b
      continue;
    }
    out.parts_ = std::move(next);
  }
  // A subtrahend part with no constraints (the universe) leaves no pieces;
  // the loop above handles it uniformly (ineqs is empty, nothing survives).
  return out;
}

Tri Set::emptiness() const {
  bool definite = true;
  for (const BasicSet& part : parts_) {
    switch (part.feasibility()) {
      case BasicSet::Feas::NonEmpty: return Tri::No;
      case BasicSet::Feas::Unknown: definite = false; break;
      case BasicSet::Feas::Empty: break;
    }
  }
  return definite ? Tri::Yes : Tri::Unknown;
}

bool Set::containsPoint(std::span<const i64> params, std::span<const i64> ins,
                        std::span<const i64> outs) const {
  for (const BasicSet& part : parts_)
    if (part.containsPoint(params, ins, outs)) return true;
  return false;
}

void Set::pruneEmptyParts() {
  std::erase_if(parts_, [](const BasicSet& p) {
    return p.markedEmpty() || p.feasibility() == BasicSet::Feas::Empty;
  });
}

std::string Set::str() const {
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
