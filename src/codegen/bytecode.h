#pragma once

// Compiled execution tier for the range enumerators (DESIGN.md "Execution
// tiers").
//
// The paper compiles each enumerator's isl AST to LLVM IR once per kernel
// and calls the native function at run time; the interpreter tier here walks
// the pset::ScanNest expression trees instead.  This header closes most of
// that gap without a JIT: every bound and guard expression is flattened once
// into a register bytecode (`bc::Program`) executed by a tiny VM, and a
// specializing pass constant-folds the runtime parameter vector — launch
// configuration, scalar arguments, and the 6-tuple partition box — into the
// program, after which most guards and bounds are plain constants and the
// remaining code is a handful of instructions over loop variables.
//
// Semantics are bit-for-bit those of AstExpr::eval: operands are evaluated
// in the same order with the same checked 64-bit arithmetic, so the folded
// program and the interpreter throw the same OverflowError at the same
// operation or produce identical values (tests/enumerator_fuzz_test.cpp is
// the differential oracle).  Specialization folds with *non-throwing*
// overflow probes and keeps any instruction whose folding would overflow,
// because the interpreter evaluates bounds lazily — an expression it never
// reaches must not throw during specialization either.

#include <cstdint>
#include <span>
#include <vector>

#include "pset/ast.h"

namespace polypart::codegen {

/// Which execution engine enumerate()/materialize() use.
/// Both tiers are byte-identical in emitted ranges, work accounting, and
/// error behaviour; `Interpret` is the paper-mode default.
enum class EnumTier {
  Interpret,    ///< walk the pset::AstExpr trees (paper mode)
  Specialized,  ///< flat register bytecode, compiled once per enumerator,
                ///< constant-folded per parameter vector and cached
};

const char* enumTierName(EnumTier t);

namespace bc {

enum class Op : std::uint8_t {
  Const,     // r[dst] = imm
  Param,     // r[dst] = params[imm]
  Loop,      // r[dst] = loops[imm]
  Add,       // r[dst] = r[a] + r[b]   (checked)
  Sub,       // r[dst] = r[a] - r[b]   (checked)
  Mul,       // r[dst] = r[a] * r[b]   (checked)
  FloorDiv,  // r[dst] = floorDiv(r[a], r[b])
  CeilDiv,   // r[dst] = ceilDiv(r[a], r[b])
  Neg,       // r[dst] = -r[a]         (checked)
  Min,       // r[dst] = min(r[a], r[b])
  Max,       // r[dst] = max(r[a], r[b])
};

struct Insn {
  Op op = Op::Const;
  std::uint16_t dst = 0, a = 0, b = 0;
  i64 imm = 0;
};

/// One compiled expression: the half-open slice [begin, end) of
/// Program::code whose final result lands in register `out`.  Registers are
/// assigned single-static within a slice, so slices share one register file.
struct CompiledExpr {
  std::uint32_t begin = 0, end = 0;
  std::uint16_t out = 0;
  /// 1 + the highest loop-variable index the expression reads (0 = none).
  /// Mirrors AstExpr::independentOfLoopsFrom for the coalescing decisions;
  /// specialization copies it from the unspecialized expression so all tiers
  /// take identical coalescing paths.
  std::uint16_t loopDepNeeded = 0;
  /// Specialized tier: the expression folded to a constant (empty slice).
  bool isConst = false;
  i64 constValue = 0;

  bool independentOfLoopsFrom(std::size_t minLevel) const {
    return loopDepNeeded <= minLevel;
  }
};

struct CompiledLevel {
  CompiledExpr lower, upper;
};

/// One compiled ScanNest: parameter-only guards plus per-level bounds.
struct CompiledNest {
  std::vector<CompiledExpr> guards;
  std::vector<CompiledLevel> levels;
};

/// A whole enumerator body: every nest's expressions in one flat code
/// vector.  Immutable after compile()/specialize(); the register scratch is
/// caller-provided, so one Program may be executed concurrently.
struct Program {
  std::vector<Insn> code;
  std::uint16_t numRegs = 0;  // register file size shared by all slices
  std::vector<CompiledNest> nests;

  /// Executes one expression slice.  `regs` must have numRegs slots.
  i64 eval(const CompiledExpr& e, std::span<const i64> params,
           std::span<const i64> loops, i64* regs) const;
};

/// Compiles the nests' guard/bound AstExprs to bytecode (once per
/// enumerator, at construction).
Program compile(std::span<const pset::ScanNest> nests);

/// Partial evaluation for one parameter vector: Param loads become
/// constants and constant subexpressions fold (non-throwing probes; an
/// instruction whose folding would overflow is kept, preserving the lazy
/// error behaviour of the interpreter).  loopDepNeeded is copied unchanged.
Program specialize(const Program& p, std::span<const i64> params);

}  // namespace bc
}  // namespace polypart::codegen
