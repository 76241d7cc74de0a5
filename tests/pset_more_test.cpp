// Additional polyhedral-substrate tests: space manipulation, set algebra,
// map domain/range by projection, exactness propagation, overflow safety,
// scan-AST C emission, and randomized projection-vs-enumeration properties.

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "pset/ast.h"
#include "pset/fm_internal.h"
#include "pset/set.h"
#include "support/rng.h"

namespace polypart::pset {
namespace {

TEST(SpaceMore, AddParamsAppendsParameters) {
  Space s = Space::map({"N"}, {"i", "j"}, {"a"});
  Space wider = s.addParams({"p", "q"});
  EXPECT_EQ(wider.numParams(), 3u);
  EXPECT_EQ(wider.paramIndex("q"), 2u);
  EXPECT_EQ(wider.paramIndex("zzz"), Space::npos);
  EXPECT_EQ(wider.numIn(), 2u);
  EXPECT_EQ(wider.name(DimId::out(0)), "a");
}

TEST(BasicSetMore, AlignToSpaceWidensParams) {
  Space narrow = Space::set({"N"}, {"i"});
  BasicSet bs(narrow);
  bs.addBounds(DimId::in(0), LinExpr(narrow), LinExpr::dim(narrow, DimId::param(0)));
  Space wide = narrow.addParams({"extra"});
  BasicSet aligned = bs.alignToSpace(wide);
  i64 params[] = {5, 999};
  i64 in4[] = {4}, in5[] = {5};
  EXPECT_TRUE(aligned.containsPoint(params, in4, {}));
  EXPECT_FALSE(aligned.containsPoint(params, in5, {}));
}

TEST(BasicSetMore, ProjectOutAllDimsLeavesParamConstraints) {
  // { [i] : 0 <= i < N } projected to params implies N >= 1.
  Space s = Space::set({"N"}, {"i"});
  BasicSet bs(s);
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  Proj p = bs.projectOut(DimKind::In, 0, 1);
  EXPECT_TRUE(p.exact);
  EXPECT_EQ(p.set.space().numIn(), 0u);
  i64 n0[] = {0}, n1[] = {1};
  EXPECT_FALSE(p.set.containsPoint(n0, {}, {}));
  EXPECT_TRUE(p.set.containsPoint(n1, {}, {}));
}

TEST(BasicSetMore, StrMentionsNamesAndConstraints) {
  Space s = Space::set({"N"}, {"i"});
  BasicSet bs(s);
  bs.addGe(LinExpr::dim(s, DimId::in(0)) * 2 - LinExpr::dim(s, DimId::param(0)));
  std::string str = bs.str();
  EXPECT_NE(str.find("[N] -> "), std::string::npos);
  EXPECT_NE(str.find("2*i"), std::string::npos);
  EXPECT_NE(str.find(">= 0"), std::string::npos);
}

TEST(BasicSetMore, OverflowInEliminationThrows) {
  Space s = Space::set({}, {"x", "y"});
  BasicSet bs(s);
  // Constraints with near-max coefficients: combining them must not wrap.
  LinExpr a(s);
  a.setCoef(s, DimId::in(0), INT64_MAX / 2);
  a.setCoef(s, DimId::in(1), 3);
  bs.addGe(a);
  LinExpr b(s);
  b.setCoef(s, DimId::in(0), -(INT64_MAX / 2 - 1));
  b.setCoef(s, DimId::in(1), 5);
  bs.addGe(b);
  EXPECT_THROW((void)bs.projectOut(DimKind::In, 0, 1), OverflowError);
}

TEST(BasicSetMore, MinInt64CoefficientAfterUnitCoefficientThrows) {
  // The gcd scan of row normalization stops once the gcd reaches 1; the
  // INT64_MIN check (|INT64_MIN| overflows) must still see every later
  // coefficient, for inequalities and equalities alike.  A throwing
  // simplify() must leave the set as it was, so it throws again.
  Space s = Space::set({}, {"x", "y", "z"});
  for (i64 unit : {i64{1}, i64{-1}}) {
    for (bool isEquality : {false, true}) {
      LinExpr e(s);
      e.setCoef(s, DimId::in(0), unit);
      e.setCoef(s, DimId::in(2), INT64_MIN);
      BasicSet bs(s);
      if (isEquality) bs.addEq(e);
      else bs.addGe(e);
      EXPECT_THROW((void)bs.feasibility(), OverflowError) << unit << " " << isEquality;
      EXPECT_THROW(bs.simplify(), OverflowError) << unit << " " << isEquality;
      EXPECT_THROW((void)bs.feasibility(), OverflowError) << unit << " " << isEquality;
    }
  }
}

TEST(BasicSetMore, ClearFmMemoMakesTheNextProjectionMiss) {
  // A cleared memo behaves like a fresh process: the first projection
  // after the clear computes, the repeat replays.
  Space s = Space::set({"N"}, {"i"});
  BasicSet bs(s);
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  (void)bs.projectOut(DimKind::In, 0, 1);
  clearFmMemo();
  const FmMemoCounters before = fmMemoCounters();
  (void)bs.projectOut(DimKind::In, 0, 1);
  (void)bs.projectOut(DimKind::In, 0, 1);
  const FmMemoCounters after = fmMemoCounters();
  EXPECT_EQ(after.misses - before.misses, 1);
  EXPECT_EQ(after.hits - before.hits, 1);
}

TEST(SetMore, IntersectAndPrune) {
  Space s = Space::set({}, {"i"});
  BasicSet lowHalf(s);
  lowHalf.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 5));
  BasicSet highHalf(s);
  highHalf.addBounds(DimId::in(0), LinExpr::constant(s, 5), LinExpr::constant(s, 10));
  BasicSet inter = lowHalf.intersect(highHalf);
  inter.simplify();
  EXPECT_EQ(inter.feasibility(), BasicSet::Feas::Empty);

  Set uni(s);
  uni.addPart(lowHalf);
  uni.addPart(highHalf);
  EXPECT_EQ(uni.parts().size(), 2u);
  uni.pruneEmptyParts();
  EXPECT_EQ(uni.parts().size(), 2u);
  i64 p3[] = {3}, p7[] = {7}, p10[] = {10};
  EXPECT_TRUE(uni.containsPoint({}, p3));
  EXPECT_TRUE(uni.containsPoint({}, p7));
  EXPECT_FALSE(uni.containsPoint({}, p10));
}

TEST(SetMore, ExactnessPropagatesThroughOps) {
  Space s = Space::set({}, {"i", "j"});
  BasicSet bs(s);
  LinExpr i = LinExpr::dim(s, DimId::in(0));
  LinExpr j = LinExpr::dim(s, DimId::in(1));
  bs.addGe(j);
  bs.addGe(LinExpr::constant(s, 5) - j);
  bs.addEq(i - j * 2);  // projection of j is integer-inexact
  Proj p = bs.projectOut(DimKind::In, 1, 1);
  EXPECT_FALSE(p.exact);
  Set projected(p.set.space());
  projected.addPart(p.set);
  projected.markInexact();
  // A difference is inexact when either operand is.
  Set exactSet = Set::universe(projected.space());
  EXPECT_TRUE(exactSet.exact());
  EXPECT_FALSE(exactSet.subtract(projected).exact());
  EXPECT_FALSE(projected.subtract(exactSet).exact());
}

TEST(MapMore, DomainOfShiftMap) {
  // The domain is the projection onto the input dimensions.
  Space s = Space::map({}, {"i"}, {"a"});
  BasicSet bs(s);
  bs.addEq(LinExpr::dim(s, DimId::out(0)) - LinExpr::dim(s, DimId::in(0)) -
           LinExpr::constant(s, 3));
  bs.addBounds(DimId::out(0), LinExpr::constant(s, 10), LinExpr::constant(s, 20));
  Proj dom = bs.projectOut(DimKind::Out, 0, 1);
  EXPECT_TRUE(dom.exact);
  // a in [10, 20) <=> i in [7, 17).
  i64 i7[] = {7}, i16[] = {16}, i17[] = {17}, i6[] = {6};
  EXPECT_TRUE(dom.set.containsPoint({}, i7, {}));
  EXPECT_TRUE(dom.set.containsPoint({}, i16, {}));
  EXPECT_FALSE(dom.set.containsPoint({}, i17, {}));
  EXPECT_FALSE(dom.set.containsPoint({}, i6, {}));
}

TEST(AstMore, ScanToCEmitsLoopNest) {
  Space s = Space::set({"N"}, {"y", "x"});
  BasicSet bs(s);
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  bs.addBounds(DimId::in(1), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  ScanNest nest = buildScan(bs);
  std::string c = scanToC(nest, {"N"}, "emit_range");
  EXPECT_NE(c.find("for (int64_t d0 ="), std::string::npos);
  EXPECT_NE(c.find("emit_range(ctx, d0, lo, hi);"), std::string::npos);
  EXPECT_NE(c.find("N"), std::string::npos);
}

TEST(AstMore, UnboundedDimensionRejected) {
  Space s = Space::set({}, {"i"});
  BasicSet bs(s);
  bs.addGe(LinExpr::dim(s, DimId::in(0)));  // i >= 0, no upper bound
  EXPECT_THROW(buildScan(bs), UnsupportedKernelError);
}

TEST(AstMore, ExprEvalAndPrinting) {
  AstExpr e = AstExpr::maxOf({AstExpr::constant(3),
                              AstExpr::ceilDiv(AstExpr::param(0), 4)});
  i64 params[] = {10};
  EXPECT_EQ(e.eval(params, {}), 3);
  i64 params2[] = {30};
  EXPECT_EQ(e.eval(params2, {}), 8);
  std::string s = e.str({"n"});
  EXPECT_NE(s.find("max("), std::string::npos);
  EXPECT_NE(s.find("ceild"), std::string::npos);
  EXPECT_NE(s.find("n"), std::string::npos);
}

TEST(AstMore, ConstantFoldingInFactories) {
  EXPECT_EQ(AstExpr::add(AstExpr::constant(2), AstExpr::constant(3)).value(), 5);
  EXPECT_EQ(AstExpr::mul(AstExpr::constant(0), AstExpr::param(3)).value(), 0);
  EXPECT_EQ(AstExpr::floorDiv(AstExpr::constant(-7), 2).value(), -4);
  EXPECT_EQ(AstExpr::ceilDiv(AstExpr::constant(-7), 2).value(), -3);
  // x * 1 and x + 0 collapse to x.
  AstExpr x = AstExpr::loopVar(0);
  EXPECT_EQ(AstExpr::mul(x, AstExpr::constant(1)).kind(), AstExpr::Kind::LoopVar);
  EXPECT_EQ(AstExpr::add(AstExpr::constant(0), x).kind(), AstExpr::Kind::LoopVar);
}

TEST(AstMore, SpecializeFoldsParamsAndKeepsLoopsAndOverflows) {
  // A param-only tree folds to one constant.
  i64 params[] = {10, 4};
  AstExpr paramOnly = AstExpr::maxOf(
      {AstExpr::add(AstExpr::param(0), AstExpr::constant(3)),
       AstExpr::ceilDiv(AstExpr::mul(AstExpr::param(1), AstExpr::param(0)), 3)});
  AstExpr folded = paramOnly.specialize(params);
  ASSERT_TRUE(folded.isConst());
  EXPECT_EQ(folded.value(), 14);

  // Loop dependence of a folded scan nest matches the unfolded one at every
  // level, and so do the values: 0 <= i < n, i <= j < n, j - i <= k <= j + m.
  Space s = Space::set({"n", "m"}, {"i", "j", "k"});
  BasicSet bs(s);
  LinExpr n = LinExpr::dim(s, DimId::param(0)), m = LinExpr::dim(s, DimId::param(1));
  LinExpr i = LinExpr::dim(s, DimId::in(0)), j = LinExpr::dim(s, DimId::in(1)),
          k = LinExpr::dim(s, DimId::in(2));
  bs.addGe(i);
  bs.addGe(n - i + LinExpr::constant(s, -1));
  bs.addGe(j - i);
  bs.addGe(n - j + LinExpr::constant(s, -1));
  bs.addGe(k - j + i);
  bs.addGe(j + m - k);
  ScanNest nest = buildScan(bs);
  const i64 loops[] = {2, 5};
  for (const ScanLevel& l : nest.levels)
    for (const AstExpr* e : {&l.lower, &l.upper}) {
      AstExpr f = e->specialize(params);
      for (std::size_t lvl = 0; lvl <= nest.levels.size(); ++lvl)
        EXPECT_EQ(f.independentOfLoopsFrom(lvl), e->independentOfLoopsFrom(lvl))
            << e->str() << " level " << lvl;
      EXPECT_EQ(f.eval(params, loops), e->eval(params, loops)) << e->str();
    }

  // An Add whose fold would overflow is kept: folding does not throw, and
  // evaluating the folded tree throws like the unfolded one.
  i64 huge[] = {std::numeric_limits<i64>::max(), 0};
  AstExpr overflow = AstExpr::maxOf(
      {AstExpr::loopVar(0), AstExpr::add(AstExpr::param(0), AstExpr::constant(1))});
  AstExpr keptAdd = overflow.specialize(huge);
  ASSERT_EQ(keptAdd.kind(), AstExpr::Kind::Max);
  EXPECT_EQ(keptAdd.kids()[1].kind(), AstExpr::Kind::Add);
  EXPECT_THROW(overflow.eval(huge, loops), OverflowError);
  EXPECT_THROW(keptAdd.eval(huge, loops), OverflowError);

  // x * 0 with x a loop variable keeps its LoopVar (the mul() factory would
  // fold it to 0).
  AstExpr timesZero = AstExpr::mul(AstExpr::loopVar(0), AstExpr::param(1));
  AstExpr keptLoop = timesZero.specialize(huge);
  ASSERT_EQ(keptLoop.kind(), AstExpr::Kind::Mul);
  EXPECT_EQ(keptLoop.kids()[0].kind(), AstExpr::Kind::LoopVar);
  EXPECT_FALSE(keptLoop.independentOfLoopsFrom(0));
  EXPECT_EQ(keptLoop.eval(huge, loops), 0);
}

/// Randomized property: projection is a sound over-approximation, and exact
/// projections match brute-force enumeration.
TEST(ProjectionProperty, SoundAndExactWhenClaimed) {
  Rng rng(555);
  for (int iter = 0; iter < 120; ++iter) {
    Space s = Space::set({}, {"i", "j"});
    BasicSet bs(s);
    bs.addBounds(DimId::in(0), LinExpr::constant(s, -4), LinExpr::constant(s, 5));
    bs.addBounds(DimId::in(1), LinExpr::constant(s, -4), LinExpr::constant(s, 5));
    for (int k = 0; k < 2; ++k) {
      LinExpr e(s);
      e.setCoef(s, DimId::in(0), rng.range(-3, 3));
      e.setCoef(s, DimId::in(1), rng.range(-3, 3));
      e.addConstant(rng.range(-5, 9));
      if (rng.chance(0.25))
        bs.addEq(std::move(e));
      else
        bs.addGe(std::move(e));
    }
    BasicSet original = bs;
    Proj p = bs.projectOut(DimKind::In, 1, 1);

    std::set<i64> truth;
    for (i64 i = -4; i < 5; ++i)
      for (i64 j = -4; j < 5; ++j) {
        i64 ins[] = {i, j};
        if (original.containsPoint({}, ins, {})) truth.insert(i);
      }
    for (i64 i = -4; i < 5; ++i) {
      i64 ins[] = {i};
      bool inProj = p.set.containsPoint({}, ins, {});
      if (truth.count(i)) {
        EXPECT_TRUE(inProj) << "projection lost i=" << i << " of " << original.str();
      } else if (p.exact) {
        EXPECT_FALSE(inProj) << "exact projection gained i=" << i << " of "
                             << original.str();
      }
    }
  }
}

/// Randomized property: projecting out a map's input dimensions
/// over-approximates its true image and is exact when it says so.
TEST(ProjectionProperty, RangeMatchesImage) {
  Rng rng(901);
  for (int iter = 0; iter < 80; ++iter) {
    Space s = Space::map({}, {"i"}, {"a"});
    BasicSet bs(s);
    bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 8));
    LinExpr a = LinExpr::dim(s, DimId::out(0));
    LinExpr i = LinExpr::dim(s, DimId::in(0));
    i64 scale = rng.range(1, 3);
    i64 off = rng.range(-3, 3);
    bs.addEq(a - i * scale - LinExpr::constant(s, off));
    Proj r = bs.projectOut(DimKind::In, 0, 1);

    std::set<i64> truth;
    for (i64 ii = 0; ii < 8; ++ii) truth.insert(ii * scale + off);
    for (i64 v = -10; v < 30; ++v) {
      i64 outs[] = {v};
      bool inRange = r.set.containsPoint({}, {}, outs);
      if (truth.count(v)) {
        EXPECT_TRUE(inRange) << "scale " << scale;
      } else if (r.exact) {
        EXPECT_FALSE(inRange) << "scale " << scale << " v " << v;
      }
    }
  }
}

}  // namespace
}  // namespace polypart::pset
