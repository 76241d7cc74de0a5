#pragma once

// Internal row-level machinery shared by BasicSet simplification and
// Fourier-Motzkin elimination.  Not part of the public pset API.

#include <vector>

#include "pset/linexpr.h"

namespace polypart::pset::detail {

struct Rows {
  std::vector<Constraint> rows;
  bool empty = false;  // a constant contradiction was found
};

/// Normalizes rows in place: gcd tightening, constant-row elimination,
/// duplicate/parallel-bound merging, opposite-inequality -> equality
/// promotion.  Sets `empty` on contradiction, leaving `rows` unspecified.
void simplifyRows(Rows& r);

struct ElimResult {
  std::vector<Constraint> rows;
  bool exact = true;
  bool empty = false;
};

/// Existentially eliminates every column `c` with `elim[c]` set (column 0,
/// the constant, must never be set).  Elimination order is chosen greedily
/// to limit constraint growth.  `exact` is cleared when the integer
/// projection had to be over-approximated.
ElimResult eliminateColumns(std::vector<Constraint> rows,
                            const std::vector<bool>& elim);

/// Evaluates a constraint row against a concrete column assignment
/// (`values[0]` must be 1 for the constant column).
i64 evalRow(const LinExpr& e, const std::vector<i64>& values);

}  // namespace polypart::pset::detail

namespace polypart::pset {

/// Process-wide counters of the Fourier-Motzkin projection memo table
/// (fm.cpp).  Monotone over the process lifetime; the runtime samples them
/// as deltas from a construction-time baseline to expose per-runtime cache
/// behaviour through RuntimeStats.  The table is shared with everything else
/// the process runs, so the counts are telemetry, not a function of one
/// runtime's launch stream.
struct FmMemoCounters {
  i64 hits = 0;
  i64 misses = 0;
  i64 evictions = 0;
};

FmMemoCounters fmMemoCounters();

/// Empties the projection memo table so the next projections start cold, as
/// in a fresh process.  Leaves the monotone counters untouched.
void clearFmMemo();

}  // namespace polypart::pset
