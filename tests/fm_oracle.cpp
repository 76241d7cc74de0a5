// The Fourier-Motzkin row machinery as pset/fm.cpp first implemented it;
// see fm_oracle.h.

#include "fm_oracle.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "support/arith.h"
#include "support/error.h"

namespace polypart::oracle {

using pset::Constraint;
using pset::LinExpr;
using pset::detail::ElimResult;
using pset::detail::Rows;

namespace {

constexpr std::size_t kMaxRows = 4096;

/// Divides an inequality/equality row by the gcd of its non-constant
/// coefficients, tightening integer bounds.  Returns false when the row is a
/// contradiction.
bool normalizeRow(Constraint& c) {
  auto& row = c.expr.row();
  i64 g = 0;
  for (std::size_t i = 1; i < row.size(); ++i) g = gcd(g, row[i]);
  if (g == 0) {
    // Constant row: `const == 0` or `const >= 0`.
    if (c.isEquality ? row[0] != 0 : row[0] < 0) return false;
    // Trivially true; normalize to the canonical `0 >= 0` so dedup drops it.
    row.assign(row.size(), 0);
    return true;
  }
  if (g > 1) {
    for (std::size_t i = 1; i < row.size(); ++i) row[i] /= g;
    if (c.isEquality) {
      if (row[0] % g != 0) return false;  // no integer solutions
      row[0] /= g;
    } else {
      row[0] = floorDiv(row[0], g);
    }
  }
  if (c.isEquality) {
    // Canonical sign: first nonzero coefficient positive.
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (row[i] == 0) continue;
      if (row[i] < 0)
        for (auto& v : row) v = checkedNeg(v);
      break;
    }
  }
  return true;
}

std::vector<i64> coeffKey(const Constraint& c) {
  std::vector<i64> key(c.expr.row().begin() + 1, c.expr.row().end());
  return key;
}

}  // namespace

void simplifyRows(Rows& r) {
  std::vector<Constraint> out;
  out.reserve(r.rows.size());
  // Strongest inequality per coefficient vector: expr0 + c >= 0 is strongest
  // for the smallest c.  Equalities keyed separately.
  std::map<std::vector<i64>, std::size_t> geIndex;
  std::map<std::vector<i64>, std::size_t> eqIndex;

  for (Constraint& c : r.rows) {
    if (!normalizeRow(c)) {
      r.empty = true;
      return;
    }
    std::vector<i64> key = coeffKey(c);
    bool allZero = std::all_of(key.begin(), key.end(), [](i64 v) { return v == 0; });
    if (allZero) continue;  // trivially true after normalization
    if (c.isEquality) {
      auto [it, inserted] = eqIndex.try_emplace(key, out.size());
      if (inserted) {
        out.push_back(c);
      } else if (out[it->second].expr.constantTerm() != c.expr.constantTerm()) {
        r.empty = true;  // e = c1 and e = c2 with c1 != c2
        return;
      }
    } else {
      auto [it, inserted] = geIndex.try_emplace(key, out.size());
      if (inserted) {
        out.push_back(c);
      } else {
        Constraint& prev = out[it->second];
        prev.expr.row()[0] = std::min(prev.expr.constantTerm(), c.expr.constantTerm());
      }
    }
  }

  // Promote opposite inequality pairs to equalities and detect empty bands:
  //   e + a >= 0 and -e + b >= 0  mean  -a <= e <= b.
  for (auto& [key, idx] : geIndex) {
    std::vector<i64> negKey(key.size());
    for (std::size_t i = 0; i < key.size(); ++i) negKey[i] = checkedNeg(key[i]);
    auto it = geIndex.find(negKey);
    if (it == geIndex.end() || it->second <= idx) continue;  // visit each pair once
    i64 a = out[idx].expr.constantTerm();
    i64 b = out[it->second].expr.constantTerm();
    i64 width = checkedAdd(a, b);
    if (width < 0) {
      r.empty = true;
      return;
    }
    if (width == 0) {
      out[idx].isEquality = true;
      // Keep the twin; the dedup pass below would be needed to drop it, but a
      // redundant inequality is harmless and the equality now dominates.
    }
  }

  r.rows = std::move(out);
}

namespace {

/// Eliminates a single column from normalized rows; sets `r.empty` when a
/// contradiction is found.
void eliminateOne(Rows& r, std::size_t col, bool& exact) {
  // Prefer an equality substitution; pick the smallest |coefficient|.
  std::size_t eqIdx = static_cast<std::size_t>(-1);
  i64 eqCoef = 0;
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const Constraint& c = r.rows[i];
    i64 a = c.expr[col];
    if (!c.isEquality || a == 0) continue;
    if (eqIdx == static_cast<std::size_t>(-1) || std::abs(a) < std::abs(eqCoef)) {
      eqIdx = i;
      eqCoef = a;
    }
  }

  std::vector<Constraint> next;
  if (eqIdx != static_cast<std::size_t>(-1)) {
    // Substitute using the equality E: eqCoef * x + rest == 0.
    const Constraint E = r.rows[eqIdx];
    const i64 mag = std::abs(eqCoef);
    const i64 sign = eqCoef > 0 ? 1 : -1;
    if (mag != 1) exact = false;  // divisibility of `rest` by eqCoef is lost
    for (std::size_t i = 0; i < r.rows.size(); ++i) {
      if (i == eqIdx) continue;
      Constraint c = r.rows[i];
      i64 a = c.expr[col];
      if (a != 0) {
        // c*mag - E*(a*sign) cancels x and preserves inequality direction.
        LinExpr scaled = c.expr * mag;
        LinExpr corr = E.expr * checkedMul(a, sign);
        c.expr = scaled - corr;
        PP_ASSERT(c.expr[col] == 0);
      }
      next.push_back(std::move(c));
    }
  } else {
    std::vector<const Constraint*> lowers, uppers;
    for (const Constraint& c : r.rows) {
      i64 a = c.expr[col];
      if (a == 0) {
        next.push_back(c);
      } else if (a > 0) {
        lowers.push_back(&c);
      } else {
        uppers.push_back(&c);
      }
    }
    // One-sided bounds project away exactly.
    if (!lowers.empty() && !uppers.empty()) {
      if (next.size() + lowers.size() * uppers.size() > kMaxRows)
        throw OverflowError("Fourier-Motzkin constraint blowup");
      for (const Constraint* l : lowers) {
        for (const Constraint* u : uppers) {
          i64 a = l->expr[col];        // a > 0
          i64 b = checkedNeg(u->expr[col]);  // b > 0
          // Real shadow: b*L + a*U >= 0.  Exact over Z when a==1 or b==1
          // (Omega test exact-shadow condition).
          if (a != 1 && b != 1) exact = false;
          LinExpr combined = l->expr * b + u->expr * a;
          PP_ASSERT(combined[col] == 0);
          next.push_back(Constraint::ge(std::move(combined)));
        }
      }
    }
  }
  r.rows = std::move(next);
  oracle::simplifyRows(r);
}

}  // namespace

ElimResult eliminateColumns(std::vector<Constraint> rows,
                            const std::vector<bool>& elim) {
  PP_ASSERT(elim.empty() || !elim[0]);
  ElimResult res;
  Rows r{std::move(rows), false};
  oracle::simplifyRows(r);

  std::vector<std::size_t> pending;
  for (std::size_t c = 1; c < elim.size(); ++c)
    if (elim[c]) pending.push_back(c);

  while (!r.empty && !pending.empty()) {
    // Greedy order: eliminate the column with the smallest lower*upper
    // product to limit growth.
    std::size_t bestPos = 0;
    long bestScore = -1;
    for (std::size_t p = 0; p < pending.size(); ++p) {
      std::size_t col = pending[p];
      long lo = 0, hi = 0;
      bool hasEq = false;
      for (const Constraint& c : r.rows) {
        i64 a = c.expr[col];
        if (a == 0) continue;
        if (c.isEquality) hasEq = true;
        else if (a > 0) ++lo;
        else ++hi;
      }
      long score = hasEq ? 0 : lo * hi;
      if (bestScore < 0 || score < bestScore) {
        bestScore = score;
        bestPos = p;
      }
    }
    std::size_t col = pending[bestPos];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(bestPos));
    eliminateOne(r, col, res.exact);
  }

  res.empty = r.empty;
  res.rows = std::move(r.rows);
  if (res.empty) {
    res.rows.clear();
    res.exact = true;  // the empty set is represented exactly
  }
  return res;
}

}  // namespace polypart::oracle
