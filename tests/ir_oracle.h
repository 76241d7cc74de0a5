#pragma once

// The tree-walking IR interpreter, kept only as a test oracle for the
// compiled engine (ir::Program).  It evaluates the statement tree directly,
// resolving locals by name at run time, and implements the same evaluation
// order, checked integer arithmetic, and error messages as ir::execute
// (DESIGN.md "Compiled kernel execution"), so the differential suites can
// compare outputs, observer sequences, and exceptions exactly.

#include <span>

#include "ir/interp.h"

namespace polypart::oracle {

/// Executes all threads of `cfg` on `kernel` by walking its statement tree.
void execute(const ir::Kernel& kernel, const ir::LaunchConfig& cfg,
             std::span<const ir::ArgValue> args,
             const ir::AccessObserver& observer = nullptr);

}  // namespace polypart::oracle
