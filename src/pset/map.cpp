#include "pset/map.h"

#include "support/str.h"

namespace polypart::pset {

void Map::addPart(BasicSet bs) {
  PP_ASSERT(bs.space() == space_);
  if (bs.markedEmpty()) return;
  parts_.push_back(std::move(bs));
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
