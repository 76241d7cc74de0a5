#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
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

enum class RowKind { Normal, Trivial, Contradiction };

/// Per-column multipliers of the coefficient hash (SplitMix64 outputs).
constexpr std::array<u64, 64> kColumnKeys = [] {
  std::array<u64, 64> keys{};
  u64 z = 0;
  for (u64& k : keys) {
    z += 0x9E3779B97F4A7C15ull;
    u64 x = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    k = (x ^ (x >> 31)) | 1;
  }
  return keys;
}();

u64 columnKey(std::size_t col) { return kColumnKeys[col % kColumnKeys.size()]; }

/// Linear hash of a row's non-constant coefficients, sum(row[k] * key[k])
/// mod 2^64.  The opposite row's sum is the negation, so one sum per row
/// serves both the duplicate and the opposite-pair lookup.
u64 coeffSum(const Constraint& c) {
  const auto& row = c.expr.row();
  u64 sum = 0;
  for (std::size_t k = 1; k < row.size(); ++k)
    sum += static_cast<u64>(row[k]) * columnKey(k);
  return sum;
}

/// Divides an inequality/equality row by the gcd of its non-constant
/// coefficients, tightening integer bounds, and gives equalities a positive
/// leading coefficient; `sum` receives the normalized row's coeffSum.  A
/// constant row is Trivial (always true, dropped) or a Contradiction.  The
/// gcd scan skips zeros and stops at 1, but every coefficient is still
/// checked for INT64_MIN, whose magnitude overflows.
RowKind normalizeRow(Constraint& c, u64& sum) {
  auto& row = c.expr.row();
  const std::size_t n = row.size();
  i64 g = 0;
  i64 lead = 0;  // first nonzero coefficient
  sum = 0;
  for (std::size_t k = 1; k < n; ++k) {
    const i64 v = row[k];
    sum += static_cast<u64>(v) * columnKey(k);
    if (v == 0) continue;
    if (v == INT64_MIN) throw OverflowError("abs overflow");
    if (lead == 0) lead = v;
    if (g == 1) continue;
    i64 b = v < 0 ? -v : v;
    while (b != 0) {
      const i64 t = g % b;
      g = b;
      b = t;
    }
  }
  if (g == 0) {
    // Constant row: `const == 0` or `const >= 0`.
    if (c.isEquality ? row[0] != 0 : row[0] < 0) return RowKind::Contradiction;
    return RowKind::Trivial;
  }
  if (g > 1) {
    for (std::size_t k = 1; k < n; ++k) row[k] /= g;
    if (c.isEquality) {
      if (row[0] % g != 0) return RowKind::Contradiction;  // no integer solutions
      row[0] /= g;
    } else {
      row[0] = floorDiv(row[0], g);
    }
    sum = coeffSum(c);
  }
  if (c.isEquality && lead < 0) {
    // Canonical sign: first nonzero coefficient positive.
    for (auto& v : row) v = checkedNeg(v);
    sum = 0 - sum;
  }
  return RowKind::Normal;
}

/// True when b's non-constant coefficients equal a's (or their negation).
bool sameCoeffs(const Constraint& a, const Constraint& b, bool negate) {
  const auto& x = a.expr.row();
  const auto& y = b.expr.row();
  for (std::size_t i = 1; i < x.size(); ++i)
    if (y[i] != (negate ? -x[i] : x[i])) return false;
  return true;
}

/// Lexicographic order of the non-constant coefficients.
bool coeffsLess(const Constraint& a, const Constraint& b) {
  const auto& x = a.expr.row();
  const auto& y = b.expr.row();
  return std::lexicographical_compare(x.begin() + 1, x.end(), y.begin() + 1,
                                      y.end());
}

/// Open-addressing index over the rows simplifyRows keeps, keyed by
/// (kind, coefficients) and compared in place against the rows themselves.
/// Per-thread so the steady state allocates nothing.
struct RowIndex {
  std::vector<std::uint32_t> slots;  // kept-row index + 1; 0 marks a free slot
  std::vector<u64> sums;  // coeffSum of each kept row
  std::size_t mask = 0;
  int shift = 0;

  void reset(std::size_t rows) {
    std::size_t cap = 16;
    shift = 60;
    while (cap < 2 * rows) {
      cap *= 2;
      --shift;
    }
    if (slots.size() < cap) slots.resize(cap);
    std::fill_n(slots.begin(), cap, 0u);
    if (sums.size() < rows) sums.resize(rows);
    mask = cap - 1;
  }

  /// First probe slot of a (kind, coefficient sum) key.
  std::size_t home(bool isEquality, u64 sum) const {
    return static_cast<std::size_t>(
        ((sum + (isEquality ? 0x243F6A8885A308D3ull : 0)) * 0x9E3779B97F4A7C15ull) >>
        shift);
  }
};

thread_local RowIndex rowIndex;  // NOLINT

}  // namespace

void simplifyRows(Rows& r) {
  auto& rows = r.rows;
  RowIndex& index = rowIndex;
  index.reset(rows.size());

  // Strongest inequality per coefficient vector: expr0 + c >= 0 is strongest
  // for the smallest c.  Equalities are keyed separately.  Kept rows are
  // compacted to the front of `rows` in first-seen order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Constraint& c = rows[i];
    u64 sum = 0;
    const RowKind kind = normalizeRow(c, sum);
    if (kind == RowKind::Contradiction) {
      r.empty = true;
      return;
    }
    if (kind == RowKind::Trivial) continue;
    for (std::size_t s = index.home(c.isEquality, sum);; s = (s + 1) & index.mask) {
      const std::uint32_t slot = index.slots[s];
      if (slot == 0) {
        index.slots[s] = static_cast<std::uint32_t>(kept + 1);
        index.sums[kept] = sum;
        if (kept != i) rows[kept] = std::move(c);
        ++kept;
        break;
      }
      Constraint& prev = rows[slot - 1];
      if (index.sums[slot - 1] != sum || prev.isEquality != c.isEquality ||
          !sameCoeffs(prev, c, false))
        continue;
      if (c.isEquality) {
        if (prev.expr.constantTerm() != c.expr.constantTerm()) {
          r.empty = true;  // e = c1 and e = c2 with c1 != c2
          return;
        }
      } else {
        prev.expr.row()[0] = std::min(prev.expr.constantTerm(), c.expr.constantTerm());
      }
      break;
    }
  }
  rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(kept), rows.end());

  // Promote opposite inequality pairs to equalities and detect empty bands:
  //   e + a >= 0 and -e + b >= 0  mean  -a <= e <= b.
  // Each pair is visited from its earlier row.  When several pairs are
  // empty or overflow, the outcome is the one of the pair whose earlier row
  // has the lexicographically smallest coefficients (the order the pairs
  // were first defined in).
  std::size_t firstBad = kept;
  bool firstBadOverflows = false;
  for (std::size_t i = 0; i < kept; ++i) {
    if (rows[i].isEquality) continue;
    const u64 sum = 0 - index.sums[i];
    std::size_t twin = kept;
    for (std::size_t s = index.home(false, sum); index.slots[s] != 0;
         s = (s + 1) & index.mask) {
      const std::size_t j = index.slots[s] - 1;
      if (index.sums[j] == sum && !rows[j].isEquality &&
          sameCoeffs(rows[i], rows[j], true)) {
        twin = j;
        break;
      }
    }
    if (twin == kept || twin < i) continue;
    i64 width = 0;
    const bool overflows = __builtin_add_overflow(
        rows[i].expr.constantTerm(), rows[twin].expr.constantTerm(), &width);
    if (overflows || width < 0) {
      if (firstBad == kept || coeffsLess(rows[i], rows[firstBad])) {
        firstBad = i;
        firstBadOverflows = overflows;
      }
    } else if (width == 0) {
      // Keep the twin: a redundant inequality is harmless and the equality
      // now dominates.
      rows[i].isEquality = true;
    }
  }
  if (firstBad != kept) {
    if (firstBadOverflows) throw OverflowError("add overflow");
    r.empty = true;
  }
}

i64 evalRow(const LinExpr& e, const std::vector<i64>& values) {
  PP_ASSERT(values.size() == e.cols() && values[0] == 1);
  i64 acc = 0;
  for (std::size_t i = 0; i < values.size(); ++i)
    acc = checkedAdd(acc, checkedMul(e[i], values[i]));
  return acc;
}

namespace {

/// Rewrites `c` to `c*cf - o*of` (`sub`) or `c*cf + o*of` in place.  Throws
/// OverflowError like the equivalent LinExpr expression would: "mul
/// overflow" when any product overflows, else "add"/"sub overflow".
void combineInPlace(Constraint& c, i64 cf, const Constraint& o, i64 of, bool sub) {
  auto& x = c.expr.row();
  const auto& y = o.expr.row();
  bool mulOverflow = false;
  bool sumOverflow = false;
  for (std::size_t k = 0; k < x.size(); ++k) {
    i64 p = 0;
    i64 q = 0;
    mulOverflow |= __builtin_mul_overflow(x[k], cf, &p);
    mulOverflow |= __builtin_mul_overflow(y[k], of, &q);
    sumOverflow |= sub ? __builtin_sub_overflow(p, q, &x[k])
                       : __builtin_add_overflow(p, q, &x[k]);
  }
  if (mulOverflow) throw OverflowError("mul overflow");
  if (sumOverflow) throw OverflowError(sub ? "sub overflow" : "add overflow");
}

/// Eliminates a single column from normalized rows in place; sets `r.empty`
/// when a contradiction is found.  Rows without the column keep their
/// position; rewritten rows keep theirs (equality substitution) or are
/// replaced by the lower x upper combinations appended at the end.
void eliminateOne(Rows& r, std::size_t col, bool& exact) {
  auto& rows = r.rows;
  // Prefer an equality substitution; pick the smallest |coefficient|.
  std::size_t eqIdx = static_cast<std::size_t>(-1);
  i64 eqCoef = 0;
  std::size_t lowers = 0;
  std::size_t uppers = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Constraint& c = rows[i];
    i64 a = c.expr[col];
    if (a == 0) continue;
    if (a > 0) ++lowers;
    else ++uppers;
    if (!c.isEquality) continue;
    if (eqIdx == static_cast<std::size_t>(-1) || std::abs(a) < std::abs(eqCoef)) {
      eqIdx = i;
      eqCoef = a;
    }
  }

  if (eqIdx != static_cast<std::size_t>(-1)) {
    // Substitute using the equality E: eqCoef * x + rest == 0.
    const Constraint E = std::move(rows[eqIdx]);
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(eqIdx));
    const i64 mag = std::abs(eqCoef);
    const i64 sign = eqCoef > 0 ? 1 : -1;
    if (mag != 1) exact = false;  // divisibility of `rest` by eqCoef is lost
    for (Constraint& c : rows) {
      i64 a = c.expr[col];
      if (a == 0) continue;
      // c*mag - E*(a*sign) cancels x and preserves inequality direction.
      combineInPlace(c, mag, E, checkedMul(a, sign), /*sub=*/true);
      PP_ASSERT(c.expr[col] == 0);
    }
  } else if (lowers == 0 || uppers == 0) {
    // One-sided bounds project away exactly.
    if (lowers + uppers != 0)
      std::erase_if(rows, [col](const Constraint& c) { return c.expr[col] != 0; });
  } else {
    std::vector<Constraint> bounds;
    bounds.reserve(lowers + uppers);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].expr[col] != 0) bounds.push_back(std::move(rows[i]));
      else if (kept++ != i) rows[kept - 1] = std::move(rows[i]);
    }
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(kept), rows.end());
    if (rows.size() + lowers * uppers > kMaxRows)
      throw OverflowError("Fourier-Motzkin constraint blowup");
    rows.reserve(rows.size() + lowers * uppers);
    for (const Constraint& l : bounds) {
      const i64 a = l.expr[col];  // a > 0
      if (a < 0) continue;
      for (const Constraint& u : bounds) {
        if (u.expr[col] > 0) continue;
        const i64 b = checkedNeg(u.expr[col]);  // b > 0
        // Real shadow: b*L + a*U >= 0.  Exact over Z when a==1 or b==1
        // (Omega test exact-shadow condition).
        if (a != 1 && b != 1) exact = false;
        Constraint combined = Constraint::ge(l.expr);
        combineInPlace(combined, b, u, a, /*sub=*/false);
        PP_ASSERT(combined.expr[col] == 0);
        rows.push_back(std::move(combined));
      }
    }
  }
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
  u64 hash = 0;  // of `words`; compared first
  std::vector<i64> words;
  bool operator==(const MemoKey&) const = default;
};

struct MemoKeyHash {
  std::size_t operator()(const MemoKey& k) const { return static_cast<std::size_t>(k.hash); }
};

constexpr std::size_t kMemoEntries = 512;
std::mutex memoMutex;
std::unordered_map<MemoKey, ElimResult, MemoKeyHash> memoTable;  // NOLINT
std::deque<const MemoKey*> memoOrder;  // keys of memoTable, oldest first; NOLINT

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
  // Four independent multiply chains instead of one serial chain over the
  // whole key, folded together at the end.
  u64 lanes[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                  0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  const std::size_t n = k.words.size();
  for (std::size_t i = 0; i < n; ++i)
    lanes[i % 4] = (lanes[i % 4] ^ static_cast<u64>(k.words[i])) * 0x100000001B3ull;
  u64 h = 0;
  for (u64 lane : lanes) h = (h ^ lane ^ (lane >> 29)) * 0x9E3779B97F4A7C15ull;
  k.hash = h;
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
    // product to limit growth.  A column with an equality, or bounded on
    // one side only, scores 0; the first such column wins outright.
    std::size_t bestPos = 0;
    long bestScore = -1;
    for (std::size_t p = 0; p < pending.size() && bestScore != 0; ++p) {
      const std::size_t col = pending[p];
      long lo = 0, hi = 0;
      bool hasEq = false;
      for (const Constraint& c : r.rows) {
        const i64 a = c.expr[col];
        if (a == 0) continue;
        if (c.isEquality) {
          hasEq = true;
          break;
        }
        if (a > 0) ++lo;
        else ++hi;
      }
      const long score = hasEq ? 0 : lo * hi;
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
    // Element addresses are stable across rehashing, so the FIFO can point
    // at the table's own keys instead of copying them.
    memoOrder.push_back(&it->first);
    while (memoOrder.size() > kMemoEntries) {
      memoTable.erase(memoTable.find(*memoOrder.front()));
      memoOrder.pop_front();
      memoEvictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return res;  // equal to any entry another thread inserted meanwhile
}

}  // namespace polypart::pset::detail

namespace polypart::pset {

FmMemoCounters fmMemoCounters() {
  return {detail::memoHits.load(std::memory_order_relaxed),
          detail::memoMisses.load(std::memory_order_relaxed),
          detail::memoEvictions.load(std::memory_order_relaxed)};
}

void clearFmMemo() {
  std::lock_guard<std::mutex> lock(detail::memoMutex);
  detail::memoOrder.clear();
  detail::memoTable.clear();
}

}  // namespace polypart::pset
