#pragma once

// Entry points of the polyhedral access analysis (paper Section 4).
//
// analyzeKernel builds the KernelModel for one kernel:
//   1. abstract interpretation of index expressions into the polynomial
//      domain (analysis/poly.h) with the blockOff substitution (Eq. 6),
//   2. delinearization against declared array shapes,
//   3. construction of thread-level access relations with the full domain
//      constraints (thread/block bounds, loop bounds, affine guards),
//   4. projection of loop and threadIdx dimensions (Section 4.1),
//   5. soundness checks: write maps must stay exact under projection and be
//      thread-injective (write-after-write hazards prohibit multi-GPU
//      execution, Section 4.1),
//   6. the partitioning-strategy heuristic.
//
// Throws UnsupportedKernelError when the kernel cannot be modeled soundly.

#include <map>

#include "analysis/model.h"

namespace polypart::analysis {

/// Fallback policies for kernels the purely static analysis rejects.  The
/// paper's conclusion names two remedies: "this limitation can be remedied
/// by using instrumentation to collect write patterns ... or annotation of
/// the source code with write patterns".  The may-access tier implements the
/// first for non-affine subscripts and guards (the runtime observes the
/// written ranges); annotations implement the second and are the only route
/// for affine writes that are inexact or not provably injective.
struct AnalysisOptions {
  /// May-access tier (DESIGN.md "May-access tier & inspector–executor"):
  /// when a subscript is not affine (indirect indexing — x[idx[i]]), demote
  /// the access to a conservative MayAccess record instead of rejecting the
  /// kernel.  May-reads over-approximate to the array's whole declared
  /// extent (readMayAccess); may-writes drop their static map entirely and
  /// the runtime derives the written ranges by observed execution
  /// (writeMayAccess, Functional mode only).  Scoped to non-affine
  /// subscripts and guards: inexact projections and unprovable injectivity
  /// of otherwise-affine writes still reject.  False restores the paper's
  /// hard reject of non-affine subscripts.
  bool allowMayAccess = true;
  /// User-supplied access maps overriding the extraction per (kernel
  /// argument); see KernelAnnotations.
  const class KernelAnnotations* annotations = nullptr;
};

/// Source-level access-pattern annotations (conclusion option 3): exact
/// write maps the programmer asserts for specific array arguments, in the
/// model's Z^6 -> Z^d space.  The analysis trusts them: an annotated write
/// is not extracted, so an annotation rescues a write the analysis would
/// reject (strided, or not provably injective).
class KernelAnnotations {
 public:
  void annotateWrite(std::size_t argIndex, pset::Map map) {
    writes_[argIndex] = std::move(map);
  }
  const pset::Map* writeFor(std::size_t argIndex) const {
    auto it = writes_.find(argIndex);
    return it == writes_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::size_t, pset::Map> writes_;
};

KernelModel analyzeKernel(const ir::Kernel& kernel,
                          const AnalysisOptions& options = {});

/// Analyzes every kernel of a module.
ApplicationModel analyzeModule(const ir::Module& module,
                               const AnalysisOptions& options = {});

}  // namespace polypart::analysis
