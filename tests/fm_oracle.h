#pragma once

// The row-level Fourier-Motzkin machinery as first written, kept only as a
// test oracle for pset/fm.cpp.  It rebuilds every row on each step: copies
// all rows into a new list per eliminated column, indexes rows by their
// coefficient vectors in ordered maps, and re-normalizes every row.  The
// production code must produce the same rows in the same order, the same
// `exact`/`empty` flags, and throw OverflowError on exactly the same inputs
// (DESIGN.md "Integer projection").

#include <vector>

#include "pset/fm_internal.h"

namespace polypart::oracle {

/// Reference for pset::detail::simplifyRows.
void simplifyRows(pset::detail::Rows& r);

/// Reference for pset::detail::eliminateColumns (without its memo table).
pset::detail::ElimResult eliminateColumns(std::vector<pset::Constraint> rows,
                                          const std::vector<bool>& elim);

}  // namespace polypart::oracle
