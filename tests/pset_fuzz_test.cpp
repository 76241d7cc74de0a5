// Differential fuzzing of the polyhedral core (pset) against a brute-force
// point-enumeration oracle.
//
// Every generated set/map is box-bounded with small extents, so the oracle
// can enumerate *all* candidate integer points and classify them with
// containsPoint() — which evaluates constraints directly and involves none of
// the machinery under test.  Against that ground truth we check:
//
//   - feasibility()/emptiness(): definite answers (Empty/NonEmpty, Yes/No)
//     must match the oracle; Unknown is always acceptable (the API contract
//     is conservative).
//   - projectOut(): soundness unconditionally (every true projected point
//     satisfies the projected constraints — FM over-approximates), and full
//     equality over a margin-extended box whenever the projection reports
//     itself exact.
//   - lexMin()/lexMax(): exact match with the oracle's lexicographic extrema
//     (pset/lex.h documents these as exact for bounded sets).
//   - detail::simplifyRows()/eliminateColumns(): the same rows in the same
//     order, the same exact/empty flags, and the same OverflowError (or
//     none) as the row oracle (tests/fm_oracle.h), on raw random systems with
//     +-1, large, extreme and zero coefficients and planted contradictions.
//
// Seeds follow tests/fuzz_util.h: each case prints its own seed on failure
// and replays alone via POLYPART_FUZZ_SEED.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fm_oracle.h"
#include "fuzz_util.h"
#include "pset/lex.h"
#include "pset/map.h"
#include "pset/set.h"
#include "support/error.h"

namespace polypart::pset {
namespace {

/// Inclusive per-dimension interval of the generated bounding box.
struct Box {
  std::vector<i64> lo;
  std::vector<i64> hi;

  std::size_t dims() const { return lo.size(); }

  /// Invokes `fn` on every integer point of the box in lexicographic order.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    std::vector<i64> pt(lo);
    if (pt.empty()) {
      fn(pt);
      return;
    }
    for (;;) {
      fn(pt);
      std::size_t d = dims();
      while (d > 0) {
        --d;
        if (++pt[d] <= hi[d]) break;
        pt[d] = lo[d];
        if (d == 0) return;
      }
    }
  }
};

/// A generated basic set plus the box that bounds it (oracle domain).
struct GenSet {
  BasicSet bs;
  Box box;
};

const char* kDimNames[3] = {"i", "j", "k"};

/// Random box-bounded basic set: per-dim box constraints plus 0-3 extra
/// random (in)equalities with small coefficients.
GenSet generateSet(Rng& rng, std::size_t dims) {
  std::vector<std::string> names(kDimNames, kDimNames + dims);
  Space space = Space::set({}, names);
  GenSet g{BasicSet(space), {}};
  for (std::size_t d = 0; d < dims; ++d) {
    i64 lo = rng.range(-4, 2);
    i64 hi = lo + rng.range(0, 6);
    g.box.lo.push_back(lo);
    g.box.hi.push_back(hi);
    g.bs.addBounds(DimId::in(d), LinExpr::constant(space, lo),
                   LinExpr::constant(space, hi + 1));
  }
  const i64 extra = rng.range(0, 3);
  for (i64 c = 0; c < extra; ++c) {
    LinExpr e = LinExpr::constant(space, rng.range(-8, 8));
    for (std::size_t d = 0; d < dims; ++d)
      e.setCoef(space, DimId::in(d), rng.range(-3, 3));
    if (rng.chance(0.15))
      g.bs.addEq(std::move(e));
    else
      g.bs.addGe(std::move(e));
  }
  return g;
}

/// All integer points of `g` (lexicographic order), by exhaustive scan.
std::vector<std::vector<i64>> enumeratePoints(const GenSet& g) {
  std::vector<std::vector<i64>> pts;
  g.box.forEach([&](const std::vector<i64>& pt) {
    if (g.bs.containsPoint({}, pt, {})) pts.push_back(pt);
  });
  return pts;
}

void checkFeasibility(const BasicSet& bs, bool oracleNonEmpty) {
  switch (bs.feasibility()) {
    case BasicSet::Feas::Empty:
      EXPECT_FALSE(oracleNonEmpty) << "feasibility() == Empty but the oracle "
                                      "found a point\n"
                                   << bs.str();
      break;
    case BasicSet::Feas::NonEmpty:
      EXPECT_TRUE(oracleNonEmpty) << "feasibility() == NonEmpty but the "
                                     "oracle found no point\n"
                                  << bs.str();
      break;
    case BasicSet::Feas::Unknown:
      break;  // always a legal (conservative) answer
  }
}

void checkProjection(const GenSet& g,
                     const std::vector<std::vector<i64>>& pts, Rng& rng) {
  const std::size_t dims = g.box.dims();
  if (dims < 2) return;
  const auto drop = static_cast<std::size_t>(
      rng.range(0, static_cast<i64>(dims) - 1));
  Proj p = g.bs.projectOut(DimKind::In, drop, 1);

  // Oracle image: every true point with coordinate `drop` removed.
  std::set<std::vector<i64>> image;
  for (const std::vector<i64>& pt : pts) {
    std::vector<i64> q;
    for (std::size_t d = 0; d < dims; ++d)
      if (d != drop) q.push_back(pt[d]);
    image.insert(std::move(q));
  }

  // Soundness: FM never loses true points.
  for (const std::vector<i64>& q : image) {
    EXPECT_TRUE(p.set.containsPoint({}, q, {}))
        << "projection dropped a true point (dim " << drop << ")\n"
        << g.bs.str() << "\n-> " << p.set.str();
    if (::testing::Test::HasFailure()) return;
  }

  // Exactness: when claimed, the projected set contains *only* image points.
  // Scan the reduced box with a margin so spurious just-outside points are
  // caught too.
  if (!p.exact) return;
  Box reduced;
  for (std::size_t d = 0; d < dims; ++d) {
    if (d == drop) continue;
    reduced.lo.push_back(g.box.lo[d] - 2);
    reduced.hi.push_back(g.box.hi[d] + 2);
  }
  reduced.forEach([&](const std::vector<i64>& q) {
    if (p.set.containsPoint({}, q, {})) {
      EXPECT_TRUE(image.count(q))
          << "projection claims exactness but contains a point outside the "
             "oracle image (dim "
          << drop << ")\n"
          << g.bs.str() << "\n-> " << p.set.str();
    }
  });
}

void checkLex(const Set& s, const std::vector<std::vector<i64>>& pts) {
  std::optional<std::vector<i64>> gotMin, gotMax;
  try {
    gotMin = lexMin(s);
    gotMax = lexMax(s);
  } catch (const OverflowError&) {
    return;  // step budget: acceptable for pathological scan spaces
  }
  if (pts.empty()) {
    EXPECT_FALSE(gotMin.has_value()) << "lexMin of an empty set\n" << s.str();
    EXPECT_FALSE(gotMax.has_value()) << "lexMax of an empty set\n" << s.str();
    return;
  }
  // `pts` is produced in lexicographic scan order.
  ASSERT_TRUE(gotMin.has_value()) << "lexMin missed a non-empty set\n" << s.str();
  ASSERT_TRUE(gotMax.has_value()) << "lexMax missed a non-empty set\n" << s.str();
  EXPECT_EQ(*gotMin, pts.front()) << s.str();
  EXPECT_EQ(*gotMax, pts.back()) << s.str();
}

TEST(PsetFuzz, BasicSetsMatchPointEnumerationOracle) {
  for (int i = 0; i < fuzz::caseCount(256); ++i) {
    fuzz::SeededRng rng(fuzz::seedFor(11, i));
    SCOPED_TRACE(rng.replay());
    const auto dims = static_cast<std::size_t>(rng.range(1, 3));
    GenSet g = generateSet(rng, dims);
    std::vector<std::vector<i64>> pts = enumeratePoints(g);

    checkFeasibility(g.bs, !pts.empty());

    // simplify() must not change membership.
    BasicSet simplified = g.bs;
    simplified.simplify();
    g.box.forEach([&](const std::vector<i64>& pt) {
      bool before = g.bs.containsPoint({}, pt, {});
      bool after = simplified.markedEmpty()
                       ? false
                       : simplified.containsPoint({}, pt, {});
      EXPECT_EQ(before, after)
          << "simplify() changed membership\n"
          << g.bs.str() << "\n-> " << simplified.str();
    });
    if (::testing::Test::HasFailure()) return;

    checkProjection(g, pts, rng);
    if (::testing::Test::HasFailure()) return;

    Set s(g.bs.space());
    s.addPart(g.bs);
    checkLex(s, pts);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PsetFuzz, UnionEmptinessAndLexMatchOracle) {
  for (int i = 0; i < fuzz::caseCount(200); ++i) {
    fuzz::SeededRng rng(fuzz::seedFor(12, i));
    SCOPED_TRACE(rng.replay());
    const auto dims = static_cast<std::size_t>(rng.range(1, 3));
    GenSet a = generateSet(rng, dims);
    GenSet b = generateSet(rng, dims);

    Set u(a.bs.space());
    u.addPart(a.bs);
    u.addPart(b.bs);

    // Oracle union, deduped and re-sorted lexicographically.
    std::set<std::vector<i64>> all;
    for (auto& pt : enumeratePoints(a)) all.insert(std::move(pt));
    for (auto& pt : enumeratePoints(b)) all.insert(std::move(pt));
    std::vector<std::vector<i64>> pts(all.begin(), all.end());

    switch (u.emptiness()) {
      case Tri::Yes:
        EXPECT_TRUE(pts.empty()) << "emptiness() == Yes but the oracle found "
                                    "a point\n"
                                 << u.str();
        break;
      case Tri::No:
        EXPECT_FALSE(pts.empty()) << "emptiness() == No but the oracle found "
                                     "no point\n"
                                  << u.str();
        break;
      case Tri::Unknown:
        break;
    }
    if (::testing::Test::HasFailure()) return;

    checkLex(u, pts);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PsetFuzz, SubtractMatchesPointEnumerationOracle) {
  // Set::subtract is the dead-transfer-elision primitive (DESIGN.md
  // "Cross-launch dataflow planning"): it must never *lose* a point of the
  // true difference (a lost point would be a skipped transfer of live
  // bytes), and when it claims exactness it must contain nothing extra.
  for (int i = 0; i < fuzz::caseCount(200); ++i) {
    fuzz::SeededRng rng(fuzz::seedFor(14, i));
    SCOPED_TRACE(rng.replay());
    const auto dims = static_cast<std::size_t>(rng.range(1, 3));
    GenSet a = generateSet(rng, dims);
    GenSet b = generateSet(rng, dims);
    // Occasionally union a second disjunct into either operand so the
    // complement-splitting loop sees multi-part minuends and subtrahends.
    Set sa(a.bs.space()), sb(b.bs.space());
    sa.addPart(a.bs);
    sb.addPart(b.bs);
    std::optional<GenSet> a2, b2;
    if (rng.chance(0.4)) {
      a2 = generateSet(rng, dims);
      sa.addPart(a2->bs);
    }
    if (rng.chance(0.4)) {
      b2 = generateSet(rng, dims);
      sb.addPart(b2->bs);
    }

    Set diff = sa.subtract(sb);

    // Oracle: scan the union of both minuend boxes with a margin.
    Box scan;
    for (std::size_t d = 0; d < dims; ++d) {
      i64 lo = a.box.lo[d], hi = a.box.hi[d];
      if (a2) {
        lo = std::min(lo, a2->box.lo[d]);
        hi = std::max(hi, a2->box.hi[d]);
      }
      scan.lo.push_back(lo - 2);
      scan.hi.push_back(hi + 2);
    }
    bool failed = false;
    scan.forEach([&](const std::vector<i64>& pt) {
      if (failed) return;
      const bool inA = sa.containsPoint({}, pt);
      const bool inB = sb.containsPoint({}, pt);
      const bool want = inA && !inB;
      const bool got = diff.containsPoint({}, pt);
      if (want && !got) {
        ADD_FAILURE() << "subtract lost a live point\n"
                      << sa.str() << "\n\\\n"
                      << sb.str() << "\n-> " << diff.str();
        failed = true;
      }
      if (diff.exact() && got && !want) {
        ADD_FAILURE() << "exact subtract kept a dead point\n"
                      << sa.str() << "\n\\\n"
                      << sb.str() << "\n-> " << diff.str();
        failed = true;
      }
    });
    if (::testing::Test::HasFailure()) return;
  }
}

// --------------------------------------------------------------------------
// Maps

/// A generated single-part map plus enumeration help: the input box and, per
/// output dimension, either a defining affine function of the inputs or a
/// box interval to scan.
struct GenMap {
  Map map;
  Box inBox;
  struct OutDim {
    bool isAffine = false;
    // isAffine: out = c0 + sum coef[d] * in[d].
    i64 c0 = 0;
    std::vector<i64> coef;
    // !isAffine: inclusive scan interval.
    i64 lo = 0;
    i64 hi = 0;
  };
  std::vector<OutDim> outs;
};

GenMap generateMap(Rng& rng, std::size_t nIn, std::size_t nOut) {
  std::vector<std::string> ins(kDimNames, kDimNames + nIn);
  std::vector<std::string> outNames;
  for (std::size_t o = 0; o < nOut; ++o)
    outNames.push_back(std::string("a") + static_cast<char>('0' + o));
  Space space = Space::map({}, ins, outNames);
  BasicSet part(space);

  GenMap g;
  for (std::size_t d = 0; d < nIn; ++d) {
    i64 lo = rng.range(-3, 1);
    i64 hi = lo + rng.range(0, 5);
    g.inBox.lo.push_back(lo);
    g.inBox.hi.push_back(hi);
    part.addBounds(DimId::in(d), LinExpr::constant(space, lo),
                   LinExpr::constant(space, hi + 1));
  }
  for (std::size_t o = 0; o < nOut; ++o) {
    GenMap::OutDim od;
    od.isAffine = rng.chance(0.6);
    if (od.isAffine) {
      od.c0 = rng.range(-4, 4);
      LinExpr e = LinExpr::constant(space, od.c0);
      for (std::size_t d = 0; d < nIn; ++d) {
        od.coef.push_back(rng.range(-2, 2));
        e.setCoef(space, DimId::in(d), od.coef.back());
      }
      e.setCoef(space, DimId::out(o), -1);
      part.addEq(std::move(e));  // out_o == c0 + sum coef*in
    } else {
      od.lo = rng.range(-3, 1);
      od.hi = od.lo + rng.range(0, 4);
      part.addBounds(DimId::out(o), LinExpr::constant(space, od.lo),
                     LinExpr::constant(space, od.hi + 1));
    }
    g.outs.push_back(std::move(od));
  }
  // Optional extra inequality relating inputs and outputs.
  if (rng.chance(0.4)) {
    LinExpr e = LinExpr::constant(space, rng.range(-6, 6));
    for (std::size_t d = 0; d < nIn; ++d)
      e.setCoef(space, DimId::in(d), rng.range(-2, 2));
    for (std::size_t o = 0; o < nOut; ++o)
      e.setCoef(space, DimId::out(o), rng.range(-2, 2));
    part.addGe(std::move(e));
  }
  g.map = Map(space);
  g.map.addPart(std::move(part));
  return g;
}

/// All (in, out) pairs of the map, by scanning the input box and the per-out
/// candidate values (singleton for affine-defined outputs).
struct MapOracle {
  std::vector<std::pair<std::vector<i64>, std::vector<i64>>> pairs;
};

MapOracle enumerateMap(const GenMap& g) {
  MapOracle oracle;
  const std::size_t nOut = g.outs.size();
  g.inBox.forEach([&](const std::vector<i64>& in) {
    std::vector<i64> out(nOut, 0);
    std::vector<std::pair<i64, i64>> ranges;  // inclusive candidate intervals
    for (const GenMap::OutDim& od : g.outs) {
      if (od.isAffine) {
        i64 v = od.c0;
        for (std::size_t d = 0; d < in.size(); ++d) v += od.coef[d] * in[d];
        ranges.emplace_back(v, v);
      } else {
        ranges.emplace_back(od.lo, od.hi);
      }
    }
    // Odometer over the candidate intervals.
    for (std::size_t o = 0; o < nOut; ++o) out[o] = ranges[o].first;
    for (;;) {
      if (g.map.contains({}, in, out)) oracle.pairs.emplace_back(in, out);
      std::size_t o = nOut;
      while (o > 0) {
        --o;
        if (++out[o] <= ranges[o].second) break;
        out[o] = ranges[o].first;
        if (o == 0) return;
      }
      if (nOut == 0) return;
    }
  });
  return oracle;
}

TEST(PsetFuzz, MapsMatchPointEnumerationOracle) {
  for (int i = 0; i < fuzz::caseCount(256); ++i) {
    fuzz::SeededRng rng(fuzz::seedFor(13, i));
    SCOPED_TRACE(rng.replay());
    const auto nIn = static_cast<std::size_t>(rng.range(1, 2));
    const auto nOut = static_cast<std::size_t>(rng.range(1, 2));
    GenMap g = generateMap(rng, nIn, nOut);
    MapOracle oracle = enumerateMap(g);

    // --- lexMin/lexMax over the (in, out) tuple space.
    ASSERT_EQ(g.map.parts().size(), 1u);
    std::vector<std::vector<i64>> tuples;
    for (const auto& [in, out] : oracle.pairs) {
      std::vector<i64> t = in;
      t.insert(t.end(), out.begin(), out.end());
      tuples.push_back(std::move(t));
    }
    std::sort(tuples.begin(), tuples.end());
    std::optional<std::vector<i64>> gotMin, gotMax;
    bool lexOk = true;
    try {
      gotMin = lexMin(g.map.parts()[0]);
      gotMax = lexMax(g.map.parts()[0]);
    } catch (const OverflowError&) {
      lexOk = false;  // step budget; Error would be a real bug (all dims
                      // are bounded by constraints FM preserves)
    }
    if (lexOk) {
      if (tuples.empty()) {
        EXPECT_FALSE(gotMin.has_value()) << g.map.str();
        EXPECT_FALSE(gotMax.has_value()) << g.map.str();
      } else {
        ASSERT_TRUE(gotMin.has_value()) << g.map.str();
        ASSERT_TRUE(gotMax.has_value()) << g.map.str();
        EXPECT_EQ(*gotMin, tuples.front()) << g.map.str();
        EXPECT_EQ(*gotMax, tuples.back()) << g.map.str();
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// -- Fourier-Motzkin rows against the row oracle ------------------------------

/// A random coefficient at the given magnitude level: 0 keeps values small
/// (zeros and +-1 dominate, so eliminations combine and cancel), 1 adds
/// large values, 2 adds values at the edge of the i64 range, where the
/// checked arithmetic and the INT64_MIN guard fire.
i64 randomCoeff(Rng& rng, int level) {
  static constexpr i64 kExtreme[] = {INT64_MIN, INT64_MIN + 1, INT64_MAX,
                                     INT64_MAX - 1, i64{1} << 62,
                                     -(i64{1} << 62), 3037000499, -3037000499};
  switch (rng.range(0, 9)) {
    case 0: case 1: case 2: return 0;
    case 3: return 1;
    case 4: return -1;
    case 5: case 6: return rng.range(-6, 6);
    case 7: return level >= 1 ? rng.range(-(i64{1} << 40), i64{1} << 40)
                              : rng.range(-12, 12);
    case 8: return level >= 2 ? kExtreme[rng.range(0, 7)] : rng.range(-3, 3);
    default: return level >= 1 ? rng.range(-100000, 100000) : rng.range(-2, 2);
  }
}

std::vector<Constraint> randomSystem(Rng& rng, std::size_t cols) {
  const int level = rng.chance(0.6) ? 0 : rng.chance(0.6) ? 1 : 2;
  const std::size_t n = static_cast<std::size_t>(rng.range(0, 14));
  std::vector<Constraint> rows;
  for (std::size_t r = 0; r < n; ++r) {
    if (!rows.empty() && rng.chance(0.25)) {
      // Derive from an earlier row: a duplicate, a scaled copy (gcd
      // tightening), or the opposite bound / a conflicting equality with a
      // constant chosen to make the band empty, a single point, or wide.
      Constraint c = rows[static_cast<std::size_t>(
          rng.range(0, static_cast<i64>(rows.size()) - 1))];
      switch (rng.range(0, 4)) {
        case 0: break;
        case 1: {
          const i64 f = rng.range(2, 4);
          for (auto& v : c.expr.row())
            if (v > INT64_MIN / 4 && v < INT64_MAX / 4) v *= f;
          break;
        }
        case 2:
        case 3:
          for (std::size_t k = 1; k < cols; ++k)
            if (c.expr[k] != INT64_MIN) c.expr[k] = -c.expr[k];
          if (rng.chance(0.5)) {
            // Band width a + b that overflows unless a has the other sign.
            c.expr[0] = rng.chance(0.5) ? INT64_MAX : INT64_MIN;
          } else if (c.expr[0] > INT64_MIN + 4 && c.expr[0] < INT64_MAX - 4) {
            c.expr[0] = rng.range(-2, 2) - c.expr[0];  // band width -2..2
          }
          break;
        default:
          if (c.expr[0] < INT64_MAX) c.expr[0] += 1;
          break;
      }
      rows.push_back(std::move(c));
      continue;
    }
    LinExpr e;
    e.row().assign(cols, 0);
    for (std::size_t k = 0; k < cols; ++k) e[k] = randomCoeff(rng, level);
    rows.push_back({std::move(e), rng.chance(0.3)});
  }
  return rows;
}

std::string describe(const std::vector<Constraint>& rows,
                     const std::vector<bool>& elim) {
  std::string out = "eliminate {";
  for (std::size_t k = 1; k < elim.size(); ++k)
    if (elim[k]) out += " " + std::to_string(k);
  out += " } from\n";
  for (const Constraint& c : rows) {
    out += "  [";
    for (i64 v : c.expr.row()) out += " " + std::to_string(v);
    out += c.isEquality ? " ] == 0\n" : " ] >= 0\n";
  }
  return out;
}

/// A call's result, or the message of the OverflowError it threw.
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::string overflow;
};

template <typename Fn>
auto outcomeOf(Fn&& fn) -> Outcome<decltype(fn())> {
  try {
    return {fn(), ""};
  } catch (const OverflowError& e) {
    return {std::nullopt, e.what()};
  }
}

TEST(PsetFuzz, EliminationMatchesRowOracle) {
  int overflows = 0, empties = 0, inexact = 0, exact = 0;
  for (int i = 0; i < fuzz::caseCount(5000); ++i) {
    fuzz::SeededRng rng(fuzz::seedFor(16, i));
    SCOPED_TRACE(rng.replay());
    const std::size_t cols = static_cast<std::size_t>(rng.range(2, 8));
    const std::vector<Constraint> rows = randomSystem(rng, cols);
    std::vector<bool> elim(cols, false);
    const bool all = rng.chance(0.3);
    for (std::size_t k = 1; k < cols; ++k) elim[k] = all || rng.chance(0.5);
    SCOPED_TRACE(describe(rows, elim));

    auto simplified = [&](auto simplify) {
      return outcomeOf([&] {
        detail::Rows r{rows, false};
        simplify(r);
        if (r.empty) r.rows.clear();  // rows are unspecified once empty
        return r;
      });
    };
    auto got = simplified([](detail::Rows& r) { detail::simplifyRows(r); });
    auto want = simplified([](detail::Rows& r) { oracle::simplifyRows(r); });
    ASSERT_EQ(got.overflow, want.overflow) << "simplifyRows OverflowError";
    if (got.value) {
      EXPECT_EQ(got.value->empty, want.value->empty);
      EXPECT_TRUE(got.value->rows == want.value->rows) << "simplifyRows rows differ";
    }

    auto res = outcomeOf([&] { return detail::eliminateColumns(rows, elim); });
    auto ref = outcomeOf([&] { return oracle::eliminateColumns(rows, elim); });
    ASSERT_EQ(res.overflow, ref.overflow) << "eliminateColumns OverflowError";
    if (!res.value) {
      ++overflows;
      continue;
    }
    EXPECT_EQ(res.value->empty, ref.value->empty);
    EXPECT_EQ(res.value->exact, ref.value->exact);
    EXPECT_TRUE(res.value->rows == ref.value->rows) << "eliminateColumns rows differ";
    if (::testing::Test::HasFailure()) return;
    if (res.value->empty) ++empties;
    else if (res.value->exact) ++exact;
    else ++inexact;
  }
  if (!fuzz::seedPinned()) {
    // The sweep must reach every outcome, or it proves less than it claims.
    EXPECT_GT(overflows, 0);
    EXPECT_GT(empties, 0);
    EXPECT_GT(inexact, 0);
    EXPECT_GT(exact, 0);
  }
}

}  // namespace
}  // namespace polypart::pset
