#include "pset/ast.h"

#include <algorithm>

#include "support/str.h"

namespace polypart::pset {

AstExpr AstExpr::constant(i64 v) {
  AstExpr e;
  e.kind_ = Kind::Const;
  e.value_ = v;
  return e;
}

AstExpr AstExpr::param(std::size_t index) {
  AstExpr e;
  e.kind_ = Kind::Param;
  e.index_ = index;
  return e;
}

AstExpr AstExpr::loopVar(std::size_t level) {
  AstExpr e;
  e.kind_ = Kind::LoopVar;
  e.index_ = level;
  return e;
}

AstExpr AstExpr::add(AstExpr a, AstExpr b) {
  if (a.isConst() && b.isConst()) return constant(checkedAdd(a.value_, b.value_));
  if (a.isConst() && a.value_ == 0) return b;
  if (b.isConst() && b.value_ == 0) return a;
  AstExpr e;
  e.kind_ = Kind::Add;
  e.kids_ = {std::move(a), std::move(b)};
  return e;
}

AstExpr AstExpr::sub(AstExpr a, AstExpr b) {
  if (a.isConst() && b.isConst()) return constant(checkedSub(a.value_, b.value_));
  if (b.isConst() && b.value_ == 0) return a;
  AstExpr e;
  e.kind_ = Kind::Sub;
  e.kids_ = {std::move(a), std::move(b)};
  return e;
}

AstExpr AstExpr::mul(AstExpr a, AstExpr b) {
  if (a.isConst() && b.isConst()) return constant(checkedMul(a.value_, b.value_));
  if (a.isConst() && a.value_ == 1) return b;
  if (b.isConst() && b.value_ == 1) return a;
  if ((a.isConst() && a.value_ == 0) || (b.isConst() && b.value_ == 0))
    return constant(0);
  AstExpr e;
  e.kind_ = Kind::Mul;
  e.kids_ = {std::move(a), std::move(b)};
  return e;
}

AstExpr AstExpr::floorDiv(AstExpr a, i64 d) {
  PP_ASSERT(d > 0);
  if (d == 1) return a;
  if (a.isConst()) return constant(polypart::floorDiv(a.value_, d));
  AstExpr e;
  e.kind_ = Kind::FloorDiv;
  e.kids_ = {std::move(a), constant(d)};
  return e;
}

AstExpr AstExpr::ceilDiv(AstExpr a, i64 d) {
  PP_ASSERT(d > 0);
  if (d == 1) return a;
  if (a.isConst()) return constant(polypart::ceilDiv(a.value_, d));
  AstExpr e;
  e.kind_ = Kind::CeilDiv;
  e.kids_ = {std::move(a), constant(d)};
  return e;
}

AstExpr AstExpr::neg(AstExpr a) {
  if (a.isConst()) return constant(checkedNeg(a.value_));
  AstExpr e;
  e.kind_ = Kind::Neg;
  e.kids_ = {std::move(a)};
  return e;
}

AstExpr AstExpr::maxOf(std::vector<AstExpr> exprs) {
  PP_ASSERT(!exprs.empty());
  if (exprs.size() == 1) return std::move(exprs[0]);
  AstExpr e;
  e.kind_ = Kind::Max;
  e.kids_ = std::move(exprs);
  return e;
}

AstExpr AstExpr::minOf(std::vector<AstExpr> exprs) {
  PP_ASSERT(!exprs.empty());
  if (exprs.size() == 1) return std::move(exprs[0]);
  AstExpr e;
  e.kind_ = Kind::Min;
  e.kids_ = std::move(exprs);
  return e;
}

bool AstExpr::independentOfLoopsFrom(std::size_t minLevel) const {
  if (kind_ == Kind::LoopVar) return index_ < minLevel;
  for (const AstExpr& k : kids_)
    if (!k.independentOfLoopsFrom(minLevel)) return false;
  return true;
}

// The interpreter tier (paper mode) spends most of its enumeration time in
// this recursive switch, and its speed moved by about 25% with the
// function's offset inside a cache line (perfbench `paper_timing`, after
// unrelated code elsewhere shrank).  Starting it on a cache line keeps
// that cost independent of the code linked before it.
[[gnu::aligned(64)]] i64 AstExpr::eval(std::span<const i64> params,
                                       std::span<const i64> loopVars) const {
  switch (kind_) {
    case Kind::Const: return value_;
    case Kind::Param:
      PP_ASSERT(index_ < params.size());
      return params[index_];
    case Kind::LoopVar:
      PP_ASSERT(index_ < loopVars.size());
      return loopVars[index_];
    case Kind::Add:
      return checkedAdd(kids_[0].eval(params, loopVars), kids_[1].eval(params, loopVars));
    case Kind::Sub:
      return checkedSub(kids_[0].eval(params, loopVars), kids_[1].eval(params, loopVars));
    case Kind::Mul:
      return checkedMul(kids_[0].eval(params, loopVars), kids_[1].eval(params, loopVars));
    case Kind::FloorDiv:
      return polypart::floorDiv(kids_[0].eval(params, loopVars),
                                kids_[1].eval(params, loopVars));
    case Kind::CeilDiv:
      return polypart::ceilDiv(kids_[0].eval(params, loopVars),
                               kids_[1].eval(params, loopVars));
    case Kind::Neg: return checkedNeg(kids_[0].eval(params, loopVars));
    case Kind::Min: {
      i64 v = kids_[0].eval(params, loopVars);
      for (std::size_t i = 1; i < kids_.size(); ++i)
        v = std::min(v, kids_[i].eval(params, loopVars));
      return v;
    }
    case Kind::Max: {
      i64 v = kids_[0].eval(params, loopVars);
      for (std::size_t i = 1; i < kids_.size(); ++i)
        v = std::max(v, kids_[i].eval(params, loopVars));
      return v;
    }
  }
  PP_ASSERT(false);
  return 0;
}

std::string AstExpr::str(const std::vector<std::string>& paramNames) const {
  auto nary = [&](const char* fn) {
    std::vector<std::string> parts;
    parts.reserve(kids_.size());
    for (const AstExpr& k : kids_) parts.push_back(k.str(paramNames));
    return std::string(fn) + "(" + join(parts, ", ") + ")";
  };
  switch (kind_) {
    case Kind::Const: return std::to_string(value_);
    case Kind::Param:
      return index_ < paramNames.size() ? paramNames[index_]
                                        : "p" + std::to_string(index_);
    case Kind::LoopVar: return "d" + std::to_string(index_);
    case Kind::Add:
      return "(" + kids_[0].str(paramNames) + " + " + kids_[1].str(paramNames) + ")";
    case Kind::Sub:
      return "(" + kids_[0].str(paramNames) + " - " + kids_[1].str(paramNames) + ")";
    case Kind::Mul:
      return "(" + kids_[0].str(paramNames) + " * " + kids_[1].str(paramNames) + ")";
    case Kind::FloorDiv: return nary("floord");
    case Kind::CeilDiv: return nary("ceild");
    case Kind::Neg: return "-(" + kids_[0].str(paramNames) + ")";
    case Kind::Min: return nary("min");
    case Kind::Max: return nary("max");
  }
  PP_ASSERT(false);
  return {};
}

namespace {

/// Converts an affine row restricted to outer dims/params into an AstExpr.
/// `dimLevel[col]` maps a column to its loop level, or npos for params.
AstExpr rowToExpr(const Space& space, const LinExpr& row, std::size_t skipCol) {
  AstExpr acc = AstExpr::constant(row.constantTerm());
  for (std::size_t c = 1; c < space.cols(); ++c) {
    if (c == skipCol || row[c] == 0) continue;
    DimId d = space.dimAt(c);
    AstExpr term = d.kind == DimKind::Param ? AstExpr::param(d.index)
                                            : AstExpr::loopVar(d.index);
    acc = AstExpr::add(std::move(acc),
                       AstExpr::mul(AstExpr::constant(row[c]), std::move(term)));
  }
  return acc;
}

}  // namespace

ScanNest buildScan(const BasicSet& set) {
  const Space& space = set.space();
  PP_ASSERT_MSG(space.numOut() == 0, "scan over a set, not a map");
  const std::size_t n = space.numIn();
  PP_ASSERT_MSG(n > 0, "cannot scan a zero-dimensional set");

  // Collect constraint rows from the set itself and from the projections onto
  // every prefix of dimensions; assign each row to the level of its deepest
  // dimension.  Applying every original row at its own level keeps the scan
  // exact even when intermediate projections over-approximate.
  std::vector<std::vector<Constraint>> rowsAtLevel(n);
  std::vector<Constraint> paramGuards;

  auto classify = [&](const Constraint& c) {
    std::size_t deepest = Space::npos;
    for (std::size_t i = 0; i < n; ++i)
      if (c.expr.coef(space, DimId::in(i)) != 0) deepest = i;
    if (deepest == Space::npos) {
      paramGuards.push_back(c);
    } else {
      rowsAtLevel[deepest].push_back(c);
    }
  };

  BasicSet simplified = set;
  simplified.simplify();
  if (simplified.markedEmpty()) {
    // Emit a nest guarded by an always-false condition.
    ScanNest nest;
    nest.guards.push_back(AstExpr::constant(-1));
    nest.levels.resize(n, ScanLevel{AstExpr::constant(0), AstExpr::constant(-1)});
    return nest;
  }
  for (const Constraint& c : simplified.constraints()) classify(c);

  // Projections supply derived bounds for outer dimensions.
  BasicSet current = simplified;
  for (std::size_t i = n; i-- > 1;) {
    // Project out dimension i, leaving dims 0..i-1.
    Proj p = current.projectOut(DimKind::In, i, current.space().numIn() - i);
    current = std::move(p.set);
    // `current` has dims 0..i-1 with the same names; its constraints align
    // with the original space on those columns.  Re-embed.
    for (const Constraint& c : current.constraints()) {
      LinExpr wide(space);
      wide.row()[0] = c.expr[0];
      const Space& cs = current.space();
      for (std::size_t pc = 0; pc < cs.numParams(); ++pc)
        wide.setCoef(space, DimId::param(pc), c.expr.coef(cs, DimId::param(pc)));
      for (std::size_t dc = 0; dc < cs.numIn(); ++dc)
        wide.setCoef(space, DimId::in(dc), c.expr.coef(cs, DimId::in(dc)));
      classify(Constraint{std::move(wide), c.isEquality});
    }
  }

  ScanNest nest;
  for (const Constraint& g : paramGuards) {
    if (g.isEquality) {
      // e == 0 as two guards: e >= 0 and -e >= 0.
      nest.guards.push_back(rowToExpr(space, g.expr, 0));
      nest.guards.push_back(rowToExpr(space, -g.expr, 0));
    } else {
      nest.guards.push_back(rowToExpr(space, g.expr, 0));
    }
  }

  nest.levels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<AstExpr> lowers, uppers;
    const std::size_t col = space.col(DimId::in(i));
    for (const Constraint& c : rowsAtLevel[i]) {
      i64 a = c.expr[col];
      PP_ASSERT(a != 0);
      // a*x + rest >= 0  (or == 0).
      if (a > 0 || c.isEquality) {
        // x >= ceil(-rest / a)   [for equalities with a < 0, negate first]
        LinExpr rest = c.expr;
        i64 coef = a;
        if (coef < 0) {
          rest = -rest;
          coef = -coef;
        }
        rest[col] = 0;
        lowers.push_back(AstExpr::ceilDiv(AstExpr::neg(rowToExpr(space, rest, col)),
                                          coef));
      }
      if (a < 0 || c.isEquality) {
        // x <= floor(rest / -a)  (with rest excluding the x term)
        LinExpr rest = c.expr;
        i64 coef = a;
        if (coef > 0) {
          rest = -rest;
          coef = -coef;
        }
        rest[col] = 0;
        uppers.push_back(AstExpr::floorDiv(rowToExpr(space, rest, col), -coef));
      }
    }
    if (lowers.empty() || uppers.empty())
      throw UnsupportedKernelError(
          "cannot enumerate unbounded set dimension '" +
          space.name(DimId::in(i)) + "' in " + set.str());
    nest.levels.push_back(
        ScanLevel{AstExpr::maxOf(std::move(lowers)), AstExpr::minOf(std::move(uppers))});
  }
  return nest;
}

namespace {

void scanRec(const ScanNest& nest, std::span<const i64> params,
             std::vector<i64>& coords, std::size_t level, const RowCallback& cb) {
  const ScanLevel& L = nest.levels[level];
  i64 lo = L.lower.eval(params, coords);
  i64 hi = L.upper.eval(params, coords);
  if (lo > hi) return;
  if (level + 1 == nest.levels.size()) {
    cb(std::span<const i64>(coords.data(), coords.size()), lo, hi);
    return;
  }
  coords.push_back(lo);
  for (i64 v = lo; v <= hi; ++v) {
    coords.back() = v;
    scanRec(nest, params, coords, level + 1, cb);
  }
  coords.pop_back();
}

}  // namespace

void scanRows(const ScanNest& nest, std::span<const i64> params,
              const RowCallback& cb) {
  for (const AstExpr& g : nest.guards)
    if (g.eval(params, {}) < 0) return;
  std::vector<i64> coords;
  coords.reserve(nest.levels.size());
  scanRec(nest, params, coords, 0, cb);
}

std::string scanToC(const ScanNest& nest,
                    const std::vector<std::string>& paramNames,
                    const std::string& callbackName) {
  std::string out;
  int indent = 0;
  auto line = [&](const std::string& s) {
    out.append(static_cast<std::size_t>(indent) * 2, ' ');
    out += s;
    out += '\n';
  };
  if (!nest.guards.empty()) {
    std::vector<std::string> conds;
    for (const AstExpr& g : nest.guards)
      conds.push_back("(" + g.str(paramNames) + ") >= 0");
    line("if (" + join(conds, " && ") + ") {");
    ++indent;
  }
  const std::size_t n = nest.levels.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const ScanLevel& L = nest.levels[i];
    std::string v = "d" + std::to_string(i);
    line("for (int64_t " + v + " = " + L.lower.str(paramNames) + "; " + v +
         " <= " + L.upper.str(paramNames) + "; ++" + v + ") {");
    ++indent;
  }
  const ScanLevel& last = nest.levels[n - 1];
  line("int64_t lo = " + last.lower.str(paramNames) + ";");
  line("int64_t hi = " + last.upper.str(paramNames) + ";");
  line("if (lo <= hi) " + callbackName + "(ctx, " +
       [&] {
         std::string args;
         for (std::size_t i = 0; i + 1 < n; ++i)
           args += "d" + std::to_string(i) + ", ";
         return args;
       }() +
       "lo, hi);");
  for (std::size_t i = 0; i + 1 < n; ++i) {
    --indent;
    line("}");
  }
  if (!nest.guards.empty()) {
    --indent;
    line("}");
  }
  return out;
}

}  // namespace polypart::pset
