#include <array>
#include <map>
#include <optional>
#include <set>

#include "analysis/analyze.h"
#include "analysis/poly.h"
#include "support/error.h"

namespace polypart::analysis {

namespace {

using ir::Expr;
using ir::ExprPtr;
using ir::Stmt;
using ir::StmtPtr;
using pset::BasicSet;
using pset::Constraint;
using pset::DimId;
using pset::DimKind;
using pset::LinExpr;
using pset::Map;
using pset::Space;

/// Affine condition in the polynomial domain: expr >= 0 (or == 0).
struct CondRow {
  Poly expr;
  bool isEq = false;
};

/// Conjunction of affine conditions.
using Conj = std::vector<CondRow>;
/// Disjunctive normal form: OR of conjunctions.  Negated conjunctions (the
/// else-branch of a stencil's interior guard) and != comparisons produce
/// genuine unions of Z-polyhedra.
using Disj = std::vector<Conj>;

/// Caps DNF growth; regular kernels stay tiny, so exceeding this means the
/// condition should be treated as non-affine.
constexpr std::size_t kMaxDisjuncts = 64;

struct LoopCtx {
  std::optional<Poly> lo;  // affine bounds, or nullopt when unanalyzable
  std::optional<Poly> hi;
};

/// One collected memory access at thread level, before projections.
struct RawAccess {
  std::size_t argIndex = 0;
  bool isWrite = false;
  BasicSet rel;               // space: params -> [9 grid dims + loop dims] -> [a*]
  std::size_t numLoops = 0;   // loop dims present in `rel`
  bool approximate = false;   // guarded by a dropped non-affine condition
};

constexpr std::size_t kGridDims = 9;  // box,boy,boz,bx,by,bz,tx,ty,tz

std::vector<std::string> gridInNames(std::size_t numLoops) {
  std::vector<std::string> ins = {"box", "boy", "boz", "bx", "by",
                                  "bz",  "tx",  "ty",  "tz"};
  for (std::size_t i = 0; i < numLoops; ++i) ins.push_back("l" + std::to_string(i));
  return ins;
}

std::vector<std::string> outNames(std::size_t rank) {
  std::vector<std::string> outs;
  for (std::size_t i = 0; i < rank; ++i) outs.push_back("a" + std::to_string(i));
  return outs;
}

struct Extractor {
  const ir::Kernel& kernel;
  const AnalysisOptions& options;
  Space paramSpace;
  // Kernel argument index -> model parameter index (npos for non-i64/arrays).
  std::vector<std::size_t> argToParam;
  // Per argument: declared shape as polynomials over parameters (empty for
  // scalars and undeclared/1-D arrays).
  std::vector<std::vector<Poly>> shapes;

  std::vector<LoopCtx> loops;
  std::map<std::string, std::size_t> loopVarIndex;
  std::vector<Disj> condStack;
  int approxDepth = 0;
  std::map<std::string, std::optional<Poly>> locals;
  std::vector<RawAccess> accesses;
  std::array<bool, 3> axisUsesBlockIdx{false, false, false};
  std::array<bool, 3> axisUsesThreadIdx{false, false, false};
  // Arguments demoted to the may-access tier, with the first demotion
  // diagnostic per argument (ArrayModel::mayAccessWhy).
  std::set<std::size_t> mayReadArgs;
  std::set<std::size_t> mayWriteArgs;
  std::map<std::size_t, std::string> mayAccessWhy;

  Extractor(const ir::Kernel& k, const AnalysisOptions& opts)
      : kernel(k), options(opts), paramSpace(modelParamSpace(k)) {
    argToParam.assign(k.numParams(), Space::npos);
    std::size_t next = kFixedParams;
    for (std::size_t i = 0; i < k.numParams(); ++i) {
      const ir::Param& p = k.param(i);
      if (!p.isArray && p.type == ir::Type::I64) argToParam[i] = next++;
    }
    shapes.resize(k.numParams());
    for (std::size_t i = 0; i < k.numParams(); ++i) {
      for (const ExprPtr& dim : k.param(i).shape) {
        auto poly = toPoly(*dim);
        if (!poly)
          throw UnsupportedKernelError("kernel '" + k.name() + "': shape of '" +
                                       k.param(i).name + "' is not affine");
        shapes[i].push_back(std::move(*poly));
      }
    }
  }

  // -- expression -> polynomial ---------------------------------------------

  std::optional<Poly> toPoly(const Expr& e) {
    switch (e.kind()) {
      case Expr::Kind::IntConst:
        return Poly::constant(e.intValue());
      case Expr::Kind::Arg: {
        std::size_t p = argToParam[e.argIndex()];
        if (p == Space::npos) return std::nullopt;
        return Poly::var(PVar{PVar::Kind::Param, static_cast<unsigned>(p)});
      }
      case Expr::Kind::Local: {
        auto it = locals.find(e.localName());
        if (it == locals.end() || !it->second) {
          auto lv = loopVarIndex.find(e.localName());
          if (lv != loopVarIndex.end())
            return Poly::var(PVar{PVar::Kind::Loop, static_cast<unsigned>(lv->second)});
          return std::nullopt;
        }
        return it->second;
      }
      case Expr::Kind::BuiltinVar: {
        using B = ir::Builtin;
        switch (e.builtin()) {
          case B::ThreadIdxX: return Poly::var({PVar::Kind::Tid, 0});
          case B::ThreadIdxY: return Poly::var({PVar::Kind::Tid, 1});
          case B::ThreadIdxZ: return Poly::var({PVar::Kind::Tid, 2});
          case B::BlockIdxX: return Poly::var({PVar::Kind::Bid, 0});
          case B::BlockIdxY: return Poly::var({PVar::Kind::Bid, 1});
          case B::BlockIdxZ: return Poly::var({PVar::Kind::Bid, 2});
          case B::BlockDimX: return Poly::var({PVar::Kind::Param, 0});
          case B::BlockDimY: return Poly::var({PVar::Kind::Param, 1});
          case B::BlockDimZ: return Poly::var({PVar::Kind::Param, 2});
          case B::GridDimX: return Poly::var({PVar::Kind::Param, 3});
          case B::GridDimY: return Poly::var({PVar::Kind::Param, 4});
          case B::GridDimZ: return Poly::var({PVar::Kind::Param, 5});
        }
        return std::nullopt;
      }
      case Expr::Kind::Binary: {
        auto a = toPoly(*e.operands()[0]);
        auto b = toPoly(*e.operands()[1]);
        if (!a || !b) return std::nullopt;
        switch (e.binOp()) {
          case ir::BinOp::Add: return *a + *b;
          case ir::BinOp::Sub: return *a - *b;
          case ir::BinOp::Mul: return *a * *b;
          default: return std::nullopt;
        }
      }
      case Expr::Kind::Unary:
        if (e.unOp() == ir::UnOp::Neg) {
          auto a = toPoly(*e.operands()[0]);
          return a ? std::optional<Poly>(-*a) : std::nullopt;
        }
        return std::nullopt;
      default:
        return std::nullopt;
    }
  }

  // -- conditions ------------------------------------------------------------

  /// Cross product of two DNFs (logical AND); respects kMaxDisjuncts.
  static std::optional<Disj> dnfAnd(const Disj& a, const Disj& b) {
    if (a.size() * b.size() > kMaxDisjuncts) return std::nullopt;
    Disj out;
    for (const Conj& ca : a)
      for (const Conj& cb : b) {
        Conj c = ca;
        c.insert(c.end(), cb.begin(), cb.end());
        out.push_back(std::move(c));
      }
    return out;
  }

  static std::optional<Disj> dnfOr(Disj a, const Disj& b) {
    if (a.size() + b.size() > kMaxDisjuncts) return std::nullopt;
    a.insert(a.end(), b.begin(), b.end());
    return a;
  }

  /// Converts a condition expression (optionally negated) to disjunctive
  /// normal form; nullopt when some atom is not affine.
  std::optional<Disj> condToDnf(const Expr& cond, bool negate) {
    if (cond.kind() != Expr::Kind::Binary) return std::nullopt;
    ir::BinOp op = cond.binOp();
    if (op == ir::BinOp::And || op == ir::BinOp::Or) {
      auto a = condToDnf(*cond.operands()[0], negate);
      auto b = condToDnf(*cond.operands()[1], negate);
      if (!a || !b) return std::nullopt;
      // De Morgan: !(x && y) == !x || !y.
      bool isAnd = (op == ir::BinOp::And) != negate;
      return isAnd ? dnfAnd(*a, *b) : dnfOr(std::move(*a), *b);
    }
    if (cond.operands()[0]->type() != ir::Type::I64) return std::nullopt;
    auto lhs = toPoly(*cond.operands()[0]);
    auto rhs = toPoly(*cond.operands()[1]);
    if (!lhs || !rhs) return std::nullopt;
    Poly a = *lhs, b = *rhs;
    if (negate) {
      switch (op) {
        case ir::BinOp::Lt: op = ir::BinOp::Ge; break;
        case ir::BinOp::Le: op = ir::BinOp::Gt; break;
        case ir::BinOp::Gt: op = ir::BinOp::Le; break;
        case ir::BinOp::Ge: op = ir::BinOp::Lt; break;
        case ir::BinOp::Eq: op = ir::BinOp::Ne; break;
        case ir::BinOp::Ne: op = ir::BinOp::Eq; break;
        default: return std::nullopt;
      }
    }
    switch (op) {
      case ir::BinOp::Lt: return Disj{{{b - a - Poly::constant(1), false}}};
      case ir::BinOp::Le: return Disj{{{b - a, false}}};
      case ir::BinOp::Gt: return Disj{{{a - b - Poly::constant(1), false}}};
      case ir::BinOp::Ge: return Disj{{{a - b, false}}};
      case ir::BinOp::Eq: return Disj{{{a - b, true}}};
      case ir::BinOp::Ne:
        // a != b is the union a < b or a > b.
        return Disj{{{b - a - Poly::constant(1), false}},
                    {{a - b - Poly::constant(1), false}}};
      default: return std::nullopt;
    }
  }

  // -- polynomial -> constraint row -----------------------------------------

  /// Converts an affine polynomial (after blockOff substitution) to a row in
  /// `space`; returns false when a non-affine monomial remains.
  bool polyToRow(const Poly& p, const Space& space, std::size_t numLoops,
                 LinExpr& out) const {
    out = LinExpr(space);
    for (const auto& [m, c] : p.terms()) {
      if (m.empty()) {
        out.addConstant(c);
        continue;
      }
      if (m.size() > 1) return false;
      const PVar& v = m[0];
      DimId d = DimId::param(0);
      switch (v.kind) {
        case PVar::Kind::Boff: d = DimId::in(v.index); break;
        case PVar::Kind::Bid: d = DimId::in(3 + v.index); break;
        case PVar::Kind::Tid: d = DimId::in(6 + v.index); break;
        case PVar::Kind::Loop:
          if (v.index >= numLoops) return false;
          d = DimId::in(kGridDims + v.index);
          break;
        case PVar::Kind::Param: d = DimId::param(v.index); break;
      }
      out.setCoef(space, d, checkedAdd(out.coef(space, d), c));
    }
    return true;
  }

  // -- access collection ------------------------------------------------------

  void recordAccess(std::size_t argIndex, bool isWrite, const Expr& flatIndex) {
    // Annotated writes are trusted, not extracted (see KernelAnnotations).
    if (isWrite && options.annotations &&
        options.annotations->writeFor(argIndex))
      return;
    // Expand the path condition (a stack of DNFs) into its conjunctions and
    // emit one access relation per conjunction.
    std::vector<Conj> pathConjs{{}};
    for (const Disj& d : condStack) {
      std::vector<Conj> next;
      if (pathConjs.size() * d.size() > kMaxDisjuncts)
        throw UnsupportedKernelError("kernel '" + kernel.name() +
                                     "': path condition is too disjunctive");
      for (const Conj& base : pathConjs)
        for (const Conj& extra : d) {
          Conj c = base;
          c.insert(c.end(), extra.begin(), extra.end());
          next.push_back(std::move(c));
        }
      pathConjs = std::move(next);
    }
    for (const Conj& conj : pathConjs)
      recordAccessConj(argIndex, isWrite, flatIndex, conj);
  }

  /// Handles an access the polyhedral model cannot represent: demote it to
  /// the may-access tier, otherwise reject the kernel (the paper's base
  /// behaviour, restored by AnalysisOptions::allowMayAccess = false).  The
  /// diagnostic — in both the demotion record and the rejection — names the
  /// argument and the offending subscript expression.
  void unsupportedAccess(std::size_t argIndex, bool isWrite,
                         const std::string& why) {
    const std::string diag =
        why + " on '" + kernel.param(argIndex).name + "'";
    if (options.allowMayAccess &&
        (isWrite || !shapes[argIndex].empty())) {
      // May-reads need a declared shape for the whole-extent box; may-writes
      // demote unconditionally (the runtime observes the written ranges).
      (isWrite ? mayWriteArgs : mayReadArgs).insert(argIndex);
      mayAccessWhy.emplace(argIndex, diag);  // keep the first reason
      return;
    }
    throw UnsupportedKernelError("kernel '" + kernel.name() + "': " + diag);
  }

  void recordAccessConj(std::size_t argIndex, bool isWrite, const Expr& flatIndex,
                        const Conj& conds) {
    const std::size_t numLoops = loops.size();
    auto flat = toPoly(flatIndex);
    if (!flat) {
      unsupportedAccess(argIndex, isWrite,
                        std::string(isWrite ? "non-affine write index '"
                                            : "non-affine read index '") +
                            flatIndex.str() + "'");
      return;
    }
    Poly indexPoly = flat->substituteBlockOffsets();

    std::vector<Poly> shape;
    for (const Poly& s : shapes[argIndex]) shape.push_back(s.substituteBlockOffsets());
    auto subs = delinearize(indexPoly, shape);
    if (!subs) {
      unsupportedAccess(argIndex, isWrite,
                        "cannot delinearize access '" + flatIndex.str() + "'");
      return;
    }
    const std::size_t rank = subs->size();

    Space space = Space::map(paramSpace.paramNames(), gridInNames(numLoops),
                             outNames(rank));
    BasicSet rel(space);
    bool approx = approxDepth > 0;

    auto addRow = [&](const Poly& p, bool isEq) -> bool {
      LinExpr row;
      if (!polyToRow(p.substituteBlockOffsets(), space, numLoops, row)) return false;
      rel.add(Constraint{std::move(row), isEq});
      return true;
    };

    // Grid context: 0 <= tid < blockDim, 0 <= bid < gridDim, blockOff >= 0,
    // blockDim >= 1, gridDim >= 1.
    for (unsigned a = 0; a < 3; ++a) {
      LinExpr tid = LinExpr::dim(space, DimId::in(6 + a));
      LinExpr bid = LinExpr::dim(space, DimId::in(3 + a));
      LinExpr boff = LinExpr::dim(space, DimId::in(a));
      LinExpr bd = LinExpr::dim(space, DimId::param(a));
      LinExpr gd = LinExpr::dim(space, DimId::param(3 + a));
      rel.addGe(tid);
      rel.addGe(bd - tid + LinExpr::constant(space, -1));
      rel.addGe(bid);
      rel.addGe(gd - bid + LinExpr::constant(space, -1));
      rel.addGe(boff);
      rel.addGe(bd + LinExpr::constant(space, -1));
      rel.addGe(gd + LinExpr::constant(space, -1));
    }

    // Enclosing loop bounds (when affine).
    for (std::size_t j = 0; j < numLoops; ++j) {
      LinExpr lv = LinExpr::dim(space, DimId::in(kGridDims + j));
      if (loops[j].lo) {
        LinExpr row;
        if (polyToRow(*loops[j].lo, space, numLoops, row))
          rel.addGe(lv - row);
        else
          approx = true;
      } else {
        approx = true;
      }
      if (loops[j].hi) {
        LinExpr row;
        if (polyToRow(*loops[j].hi, space, numLoops, row))
          rel.addGe(row - lv + LinExpr::constant(space, -1));
        else
          approx = true;
      } else {
        approx = true;
      }
    }

    // Affine guards collected on the path.
    for (const CondRow& c : conds) {
      if (!addRow(c.expr, c.isEq)) approx = true;
    }

    // Subscript equalities a_j == sub_j.
    for (std::size_t j = 0; j < rank; ++j) {
      LinExpr row;
      if (!polyToRow((*subs)[j], space, numLoops, row)) {
        unsupportedAccess(argIndex, isWrite,
                          "non-affine subscript '" + flatIndex.str() + "'");
        return;
      }
      rel.add(Constraint{LinExpr::dim(space, DimId::out(j)) - row, true});
    }

    // Declared shape bounds 0 <= a_j < shape_j.
    for (std::size_t j = 0; j < shape.size(); ++j) {
      rel.addGe(LinExpr::dim(space, DimId::out(j)));
      LinExpr row;
      if (polyToRow(shape[j], space, numLoops, row))
        rel.addGe(row - LinExpr::dim(space, DimId::out(j)) +
                  LinExpr::constant(space, -1));
    }
    if (shape.empty()) rel.addGe(LinExpr::dim(space, DimId::out(0)));

    if (isWrite && approx) {
      unsupportedAccess(argIndex, true,
                        "write of '" + flatIndex.str() +
                            "' under a non-affine guard cannot be modeled "
                            "accurately");
      return;
    }

    rel.simplify();
    accesses.push_back(RawAccess{argIndex, isWrite, std::move(rel), numLoops, approx});
  }

  // -- traversal ---------------------------------------------------------------

  void scanExprForReads(const Expr& e) {
    if (e.kind() == Expr::Kind::Load) {
      scanExprForReads(*e.operands()[0]);
      recordAccess(e.argIndex(), /*isWrite=*/false, *e.operands()[0]);
      return;
    }
    if (e.kind() == Expr::Kind::BuiltinVar) {
      if (e.builtin() == ir::Builtin::BlockIdxX) axisUsesBlockIdx[0] = true;
      if (e.builtin() == ir::Builtin::BlockIdxY) axisUsesBlockIdx[1] = true;
      if (e.builtin() == ir::Builtin::BlockIdxZ) axisUsesBlockIdx[2] = true;
      if (e.builtin() == ir::Builtin::ThreadIdxX) axisUsesThreadIdx[0] = true;
      if (e.builtin() == ir::Builtin::ThreadIdxY) axisUsesThreadIdx[1] = true;
      if (e.builtin() == ir::Builtin::ThreadIdxZ) axisUsesThreadIdx[2] = true;
    }
    for (const ExprPtr& k : e.operands()) scanExprForReads(*k);
  }

  void visit(const Stmt& s) {
    switch (s.kind()) {
      case Stmt::Kind::Block:
        for (const StmtPtr& c : s.body()) visit(*c);
        break;
      case Stmt::Kind::Let: {
        scanExprForReads(*s.value());
        locals[s.varName()] = s.value()->type() == ir::Type::I64
                                  ? toPoly(*s.value())
                                  : std::nullopt;
        break;
      }
      case Stmt::Kind::Assign: {
        scanExprForReads(*s.value());
        // Reassigned locals lose their affine meaning (conservative).
        locals[s.varName()] = std::nullopt;
        break;
      }
      case Stmt::Kind::Store:
        scanExprForReads(*s.index());
        scanExprForReads(*s.value());
        recordAccess(s.arrayArg(), /*isWrite=*/true, *s.index());
        break;
      case Stmt::Kind::For: {
        scanExprForReads(*s.lo());
        scanExprForReads(*s.hi());
        LoopCtx lc{toPoly(*s.lo()), toPoly(*s.hi())};
        std::size_t idx = loops.size();
        loops.push_back(std::move(lc));
        auto prev = loopVarIndex.find(s.varName());
        std::optional<std::size_t> saved;
        if (prev != loopVarIndex.end()) saved = prev->second;
        loopVarIndex[s.varName()] = idx;
        visit(*s.body()[0]);
        if (saved)
          loopVarIndex[s.varName()] = *saved;
        else
          loopVarIndex.erase(s.varName());
        loops.pop_back();
        break;
      }
      case Stmt::Kind::If: {
        scanExprForReads(*s.cond());
        std::optional<Disj> thenDnf = condToDnf(*s.cond(), false);
        std::optional<Disj> elseDnf = condToDnf(*s.cond(), true);

        std::size_t mark = condStack.size();
        if (thenDnf)
          condStack.push_back(std::move(*thenDnf));
        else
          ++approxDepth;
        visit(*s.body()[0]);
        condStack.resize(mark);
        if (!thenDnf) --approxDepth;

        if (s.body()[1]) {
          if (elseDnf)
            condStack.push_back(std::move(*elseDnf));
          else
            ++approxDepth;
          visit(*s.body()[1]);
          condStack.resize(mark);
          if (!elseDnf) --approxDepth;
        }
        break;
      }
    }
  }
};

/// Thread-level injectivity check with the blockOff/blockIdx linkage
/// (Section 4.1: write maps must be injective across threads).  The linkage
/// boff_w = bid_w * bdim_w is non-affine; its affine consequences are:
///   bid_w == bid'_w  implies boff_w == boff'_w, and
///   bid_w <  bid'_w  implies boff'_w >= boff_w + bdim_w.
/// Every true thread conflict satisfies one of the resulting 3^3 axis case
/// combinations, so emptiness of all of them proves injectivity.
bool isThreadInjective(const Map& writeMap) {
  const Space& mapSpace = writeMap.space();
  const std::size_t nIn = mapSpace.numIn();  // 9 grid dims
  PP_ASSERT(nIn == kGridDims);
  std::vector<std::string> ins2 = mapSpace.inNames();
  for (const std::string& n : mapSpace.inNames()) ins2.push_back(n + "'");
  Space cs = Space::map(mapSpace.paramNames(), std::move(ins2), mapSpace.outNames());

  auto embed = [&](const BasicSet& part, std::size_t offset) {
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> colMap(mapSpace.cols(), npos);
    colMap[0] = 0;
    for (std::size_t p = 0; p < mapSpace.numParams(); ++p)
      colMap[mapSpace.col(DimId::param(p))] = cs.col(DimId::param(p));
    for (std::size_t i = 0; i < nIn; ++i)
      colMap[mapSpace.col(DimId::in(i))] = cs.col(DimId::in(i + offset));
    for (std::size_t o = 0; o < mapSpace.numOut(); ++o)
      colMap[mapSpace.col(DimId::out(o))] = cs.col(DimId::out(o));
    BasicSet out(cs);
    for (const Constraint& c : part.constraints())
      out.add(Constraint{c.expr.remapped(colMap, cs.cols()), c.isEquality});
    return out;
  };

  // Dims within the conflict space.
  auto boff = [&](unsigned a, bool primed) { return DimId::in(a + (primed ? nIn : 0)); };
  auto bid = [&](unsigned a, bool primed) { return DimId::in(3 + a + (primed ? nIn : 0)); };
  auto tid = [&](unsigned a, bool primed) { return DimId::in(6 + a + (primed ? nIn : 0)); };

  for (std::size_t pa = 0; pa < writeMap.parts().size(); ++pa) {
    for (std::size_t pb = pa; pb < writeMap.parts().size(); ++pb) {
      BasicSet base = embed(writeMap.parts()[pa], 0)
                          .intersect(embed(writeMap.parts()[pb], nIn));
      // Axis cases: 0 = equal blocks, 1 = bid < bid', 2 = bid > bid'.
      for (int cx = 0; cx < 3; ++cx) {
        for (int cy = 0; cy < 3; ++cy) {
          for (int cz = 0; cz < 3; ++cz) {
            const int cases[3] = {cx, cy, cz};
            BasicSet q = base;
            bool blocksAllEqual = true;
            for (unsigned a = 0; a < 3; ++a) {
              LinExpr bo = LinExpr::dim(cs, boff(a, false));
              LinExpr bo2 = LinExpr::dim(cs, boff(a, true));
              LinExpr bi = LinExpr::dim(cs, bid(a, false));
              LinExpr bi2 = LinExpr::dim(cs, bid(a, true));
              LinExpr bd = LinExpr::dim(cs, DimId::param(a));
              switch (cases[a]) {
                case 0:
                  q.addEq(bi2 - bi);
                  q.addEq(bo2 - bo);
                  break;
                case 1:
                  q.addGe(bi2 - bi + LinExpr::constant(cs, -1));
                  q.addGe(bo2 - bo - bd);
                  blocksAllEqual = false;
                  break;
                case 2:
                  q.addGe(bi - bi2 + LinExpr::constant(cs, -1));
                  q.addGe(bo - bo2 - bd);
                  blocksAllEqual = false;
                  break;
              }
            }
            if (!blocksAllEqual) {
              q.simplify();
              if (q.markedEmpty()) continue;
              if (q.feasibility() != BasicSet::Feas::Empty) return false;
              continue;
            }
            // Same block on every axis: a conflict needs differing threads.
            for (unsigned a = 0; a < 3; ++a) {
              for (int dir = 0; dir < 2; ++dir) {
                BasicSet qq = q;
                LinExpr t = LinExpr::dim(cs, tid(a, false));
                LinExpr t2 = LinExpr::dim(cs, tid(a, true));
                LinExpr diff = dir == 0 ? t2 - t : t - t2;
                diff.addConstant(-1);
                qq.addGe(std::move(diff));
                qq.simplify();
                if (qq.markedEmpty()) continue;
                if (qq.feasibility() != BasicSet::Feas::Empty) return false;
              }
            }
          }
        }
      }
    }
  }
  return true;
}

PartitionStrategy chooseStrategy(const std::vector<ArrayModel>& arrays) {
  // Split along the grid axis that drives the outermost written array
  // dimension: that keeps each partition's write set a contiguous block of
  // rows (Section 8.1 discusses why this limits tracker fragmentation).
  for (const ArrayModel& am : arrays) {
    for (const BasicSet& part : am.write.parts()) {
      const Space& s = part.space();
      for (const Constraint& c : part.constraints()) {
        if (c.expr.coef(s, DimId::out(0)) == 0) continue;
        // Axis order: check y (1), z (2), then x (0): a 2-D kernel writing
        // rows by blockIdx.y should split y.
        for (unsigned axis : {1u, 2u, 0u}) {
          if (c.expr.coef(s, DimId::in(axis)) != 0 ||
              c.expr.coef(s, DimId::in(3 + axis)) != 0) {
            switch (axis) {
              case 0: return PartitionStrategy::SplitX;
              case 1: return PartitionStrategy::SplitY;
              case 2: return PartitionStrategy::SplitZ;
            }
          }
        }
      }
    }
  }
  return PartitionStrategy::SplitX;
}

}  // namespace

KernelModel analyzeKernel(const ir::Kernel& kernel, const AnalysisOptions& options) {
  Extractor ex(kernel, options);
  ex.visit(*kernel.body());

  KernelModel model;
  model.kernel = kernel.name();

  for (std::size_t i = 0; i < kernel.numParams(); ++i) {
    const ir::Param& p = kernel.param(i);
    model.params.push_back(ParamInfo{p.name, p.isArray, p.type, ex.argToParam[i]});
  }
  for (unsigned a = 0; a < 3; ++a) {
    model.requiresUnitGrid[a] = !ex.axisUsesBlockIdx[a];
    model.requiresUnitBlock[a] = !ex.axisUsesThreadIdx[a];
  }

  // Group raw accesses per array argument.
  for (std::size_t argIndex : kernel.arrayParamIndices()) {
    const std::size_t rank = std::max<std::size_t>(1, ex.shapes[argIndex].size());
    Space mapSpace = accessMapSpace(ex.paramSpace, rank);
    Space threadSpace =
        Space::map(ex.paramSpace.paramNames(), gridInNames(0), outNames(rank));

    Map readThread(threadSpace), writeThread(threadSpace);
    bool readApprox = false;

    for (const RawAccess& acc : ex.accesses) {
      if (acc.argIndex != argIndex) continue;
      // Arrays on the may-access tier ignore their (partial) static accesses.
      if (acc.isWrite && ex.mayWriteArgs.count(argIndex)) continue;
      if (!acc.isWrite && ex.mayReadArgs.count(argIndex)) continue;
      // Project out loop dimensions first.
      pset::Proj p = acc.rel.projectOut(DimKind::In, kGridDims, acc.numLoops);
      bool exact = p.exact && !acc.approximate;
      BasicSet aligned(threadSpace);
      for (const Constraint& c : p.set.constraints()) aligned.add(c);
      if (p.set.markedEmpty()) continue;
      if (acc.isWrite) {
        if (!exact)
          throw UnsupportedKernelError(
              "kernel '" + kernel.name() + "': write map of '" +
              kernel.param(argIndex).name + "' lost accuracy under projection");
        writeThread.addPart(std::move(aligned));
      } else {
        readApprox = readApprox || !exact;
        readThread.addPart(std::move(aligned));
      }
    }

    // For unit-grid axes (blockIdx never used), pin bid and boff to zero so
    // the injectivity check does not see phantom cross-block conflicts.  The
    // runtime validates the launch configuration against requiresUnitGrid.
    auto pinUnitAxes = [&](Map& m) {
      BasicSet pins(threadSpace);
      for (unsigned a = 0; a < 3; ++a) {
        if (model.requiresUnitGrid[a]) {
          pins.addEq(LinExpr::dim(threadSpace, DimId::in(3 + a)));  // bid = 0
          pins.addEq(LinExpr::dim(threadSpace, DimId::in(a)));      // boff = 0
          // gridDim_a == 1.
          pins.addEq(LinExpr::dim(threadSpace, DimId::param(3 + a)) +
                     LinExpr::constant(threadSpace, -1));
        }
        if (model.requiresUnitBlock[a]) {
          pins.addEq(LinExpr::dim(threadSpace, DimId::in(6 + a)));  // tid = 0
          // blockDim_a == 1.
          pins.addEq(LinExpr::dim(threadSpace, DimId::param(a)) +
                     LinExpr::constant(threadSpace, -1));
        }
      }
      return m.intersect(pins);
    };
    readThread = pinUnitAxes(readThread);
    writeThread = pinUnitAxes(writeThread);

    if (!writeThread.isEmpty() && !isThreadInjective(writeThread))
      throw UnsupportedKernelError(
          "kernel '" + kernel.name() + "': write map of '" +
          kernel.param(argIndex).name +
          "' is not injective; write-after-write hazards prohibit "
          "multi-GPU execution");

    // Eliminate the threadIdx dimensions (Section 4.1).
    auto dropTids = [&](const Map& m, bool isWrite) {
      Map out(mapSpace);
      for (const BasicSet& part : m.parts()) {
        pset::Proj p = part.projectOut(DimKind::In, 6, 3);
        if (isWrite && !p.exact)
          throw UnsupportedKernelError(
              "kernel '" + kernel.name() + "': write map of '" +
              kernel.param(argIndex).name +
              "' lost accuracy eliminating threadIdx");
        if (!p.exact) out.markInexact();
        if (p.set.markedEmpty()) continue;
        BasicSet aligned(mapSpace);
        for (const Constraint& c : p.set.constraints()) aligned.add(c);
        out.addPart(std::move(aligned));
      }
      return out;
    };

    ArrayModel am;
    am.argIndex = argIndex;
    am.name = kernel.param(argIndex).name;
    am.elemType = kernel.param(argIndex).type;
    am.read = dropTids(readThread, false);
    if (readApprox) am.read.markInexact();
    am.write = dropTids(writeThread, true);
    am.readMayAccess = ex.mayReadArgs.count(argIndex) > 0;
    am.writeMayAccess = ex.mayWriteArgs.count(argIndex) > 0;
    if (am.writeMayAccess) am.write = Map(mapSpace);
    if (auto it = ex.mayAccessWhy.find(argIndex); it != ex.mayAccessWhy.end())
      am.mayAccessWhy = it->second;

    // Shape rows over the parameter space.
    for (const Poly& s : ex.shapes[argIndex]) {
      LinExpr row(ex.paramSpace);
      bool ok = true;
      for (const auto& [m, c] : s.terms()) {
        if (m.empty()) {
          row.addConstant(c);
        } else if (m.size() == 1 && m[0].kind == PVar::Kind::Param) {
          row.setCoef(ex.paramSpace, DimId::param(m[0].index), c);
        } else {
          ok = false;
        }
      }
      if (!ok)
        throw UnsupportedKernelError("kernel '" + kernel.name() + "': shape of '" +
                                     am.name + "' is not affine in parameters");
      am.shape.push_back(std::move(row));
    }

    // May-access reads: the read set is the full declared extent,
    // independent of the partition (sound over-approximation; the
    // inspector–executor may tighten it per launch at runtime).
    if (am.readMayAccess) {
      PP_ASSERT_MSG(!am.shape.empty(), "may-access read requires a shape");
      BasicSet box(mapSpace);
      for (std::size_t j = 0; j < am.shape.size(); ++j) {
        LinExpr a = LinExpr::dim(mapSpace, DimId::out(j));
        box.addGe(a);
        LinExpr bound(mapSpace);
        bound.row()[0] = am.shape[j].constantTerm();
        for (std::size_t p = 0; p < ex.paramSpace.numParams(); ++p)
          bound.setCoef(mapSpace, DimId::param(p), am.shape[j][p + 1]);
        box.addGe(bound - a + LinExpr::constant(mapSpace, -1));
      }
      Map whole(mapSpace);
      whole.addPart(std::move(box));
      whole.markInexact();
      am.read = std::move(whole);
    }

    // Source annotations supply the maps of the writes extraction skipped
    // (conclusion option 3).
    if (options.annotations) {
      if (const pset::Map* w = options.annotations->writeFor(argIndex)) {
        PP_ASSERT_MSG(w->space() == mapSpace,
                      "annotated write map has the wrong space");
        am.write = *w;
      }
    }

    if (am.hasReads() || am.hasWrites() || am.writeMayAccess)
      model.arrays.push_back(std::move(am));
  }

  model.strategy = chooseStrategy(model.arrays);
  return model;
}

ApplicationModel analyzeModule(const ir::Module& module,
                               const AnalysisOptions& options) {
  ApplicationModel app;
  for (const ir::KernelPtr& k : module.kernels())
    app.kernels.push_back(analyzeKernel(*k, options));
  return app;
}

}  // namespace polypart::analysis
