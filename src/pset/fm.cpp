#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <unordered_map>

#include "pset/fm_internal.h"
#include "support/arith.h"
#include "support/error.h"

namespace polypart::pset::detail {

namespace {

/// Hard cap on constraint growth during elimination; regular GPU access
/// patterns stay far below this, so hitting it indicates a degenerate input.
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

i64 evalRow(const LinExpr& e, const std::vector<i64>& values) {
  PP_ASSERT(values.size() == e.cols() && values[0] == 1);
  i64 acc = 0;
  for (std::size_t i = 0; i < values.size(); ++i)
    acc = checkedAdd(acc, checkedMul(e[i], values[i]));
  return acc;
}

namespace {

/// Eliminates a single column from normalized rows.  Returns false (empty)
/// when a contradiction is found.
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
  simplifyRows(r);
}

// -- projection memoization ---------------------------------------------------
//
// eliminateColumns is a pure function of (rows, elim), and the toolchain
// calls it with heavily repeated inputs: buildScan projects every dimension
// prefix of the same set, and every enumerator of a kernel intersects the
// same access map with the same partition box.  A process-wide bounded memo
// table replays the result instead of re-running the elimination.  Being
// process-wide, the table is shared by every runtime in the process, so a
// mutex guards it; entries are evicted FIFO.

struct MemoKey {
  std::vector<i64> words;
  bool operator==(const MemoKey&) const = default;
};

struct MemoKeyHash {
  std::size_t operator()(const MemoKey& k) const {
    u64 h = 1469598103934665603ull;
    for (i64 w : k.words) {
      h ^= static_cast<u64>(w);
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

constexpr std::size_t kMemoEntries = 512;
std::mutex memoMutex;
std::unordered_map<MemoKey, ElimResult, MemoKeyHash> memoTable;  // NOLINT
std::deque<MemoKey> memoOrder;                                   // NOLINT

// Observational counters (see FmMemoCounters in fm_internal.h); relaxed
// atomics because only monotonicity matters, not ordering.
std::atomic<i64> memoHits{0};       // NOLINT
std::atomic<i64> memoMisses{0};     // NOLINT
std::atomic<i64> memoEvictions{0};  // NOLINT

MemoKey memoKeyFor(const std::vector<Constraint>& rows,
                   const std::vector<bool>& elim) {
  MemoKey k;
  k.words.reserve(2 + elim.size() + rows.size() * (1 + elim.size()));
  k.words.push_back(static_cast<i64>(elim.size()));
  k.words.push_back(static_cast<i64>(rows.size()));
  for (bool b : elim) k.words.push_back(b ? 1 : 0);
  for (const Constraint& c : rows) {
    k.words.push_back(c.isEquality ? 1 : 0);
    for (i64 v : c.expr.row()) k.words.push_back(v);
  }
  return k;
}

ElimResult eliminateColumnsImpl(std::vector<Constraint> rows,
                                const std::vector<bool>& elim) {
  ElimResult res;
  Rows r{std::move(rows), false};
  simplifyRows(r);

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

}  // namespace

ElimResult eliminateColumns(std::vector<Constraint> rows,
                            const std::vector<bool>& elim) {
  PP_ASSERT(elim.empty() || !elim[0]);
  MemoKey key = memoKeyFor(rows, elim);
  {
    std::lock_guard<std::mutex> lock(memoMutex);
    auto it = memoTable.find(key);
    if (it != memoTable.end()) {
      memoHits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Computed outside the lock (the elimination is pure): if the key was
  // inserted in the meantime, the existing entry is kept.
  memoMisses.fetch_add(1, std::memory_order_relaxed);
  ElimResult res = eliminateColumnsImpl(std::move(rows), elim);
  std::lock_guard<std::mutex> lock(memoMutex);
  auto [it, inserted] = memoTable.try_emplace(std::move(key), res);
  if (inserted) {
    memoOrder.push_back(it->first);
    while (memoOrder.size() > kMemoEntries) {
      memoTable.erase(memoOrder.front());
      memoOrder.pop_front();
      memoEvictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return it->second;
}

}  // namespace polypart::pset::detail

namespace polypart::pset {

FmMemoCounters fmMemoCounters() {
  return {detail::memoHits.load(std::memory_order_relaxed),
          detail::memoMisses.load(std::memory_order_relaxed),
          detail::memoEvictions.load(std::memory_order_relaxed)};
}

}  // namespace polypart::pset
