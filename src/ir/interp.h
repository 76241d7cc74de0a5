#pragma once

// Functional execution of IR kernels — the stand-in for running device code
// on a GPU (DESIGN.md "Compiled kernel execution").
//
// A kernel is lowered once into a flat register program (`Program`) and run
// on a small VM that executes every thread of a launch grid sequentially.  Locals resolve to register slots at compile time and types
// are static, so no runtime value carries a type tag.  Results are
// bit-identical across runs, which the integration tests rely on when
// comparing single-device and partitioned multi-device execution.
//
// Evaluation order is part of the contract, because observers and error
// messages see it: `And`/`Or` evaluate both operands, `Select` only the
// chosen arm, a `For` loop evaluates `lo` and `hi` once, a load runs index →
// observer → bounds check, and a store runs index → observer → bounds check →
// value.  Integer `Add`/`Sub`/`Mul`/`Neg` throw OverflowError instead of
// wrapping; `Div`/`Rem` by zero, `INT64_MIN / -1` and an f64 → i64 cast of
// NaN or an out-of-range value throw Error naming the kernel.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ir/kernel.h"

namespace polypart::ir {

/// Grid and block extents of one launch.
struct LaunchConfig {
  Dim3 grid;
  Dim3 block;

  bool operator==(const LaunchConfig&) const = default;
};

/// Runtime value for one kernel argument.  Arrays point at host-side element
/// storage typed per the parameter's element type (i64 or double, 8 bytes per
/// element either way).
struct ArgValue {
  Value scalar;               // scalars only
  void* buffer = nullptr;     // arrays only
  i64 numElements = 0;        // array extent, for bounds checking

  static ArgValue ofInt(i64 v) { return ArgValue{Value::ofInt(v), nullptr, 0}; }
  static ArgValue ofFloat(double v) { return ArgValue{Value::ofFloat(v), nullptr, 0}; }
  static ArgValue ofBuffer(void* data, i64 elements) {
    return ArgValue{Value{}, data, elements};
  }
};

/// Observer invoked on every global-memory access during execution; used by
/// tests to validate the polyhedral model against observed behaviour.
/// `builtins` holds the 12 CUDA special registers indexed by ir::Builtin.
using AccessObserver = std::function<void(
    std::size_t argIndex, bool isWrite, i64 flatIndex, std::span<const i64, 12> builtins)>;

/// A kernel lowered to a flat register program.  Immutable after compile()
/// or slice(); run() allocates its own register file.
class Program {
 public:
  /// Lowers `kernel`.  Throws Error naming the kernel when the body cannot
  /// be typed statically: a local used or assigned outside its scope or
  /// with another type, or an operator applied to the wrong type.
  static Program compile(const Kernel& kernel);

  /// The address slice for the array arguments `observed`: it keeps the
  /// loads of those arguments (a load whose value is unused only observes
  /// and bounds-checks) and everything their indices and the enclosing
  /// branch conditions and loop bounds depend on, and drops the rest.
  /// When a kept load's value comes from an array the kernel also stores
  /// to, every store to that array stays, so earlier threads' and launches'
  /// stores remain visible.  The slice reports exactly the same reads of
  /// `observed` to an observer, in the same order, as the full program; it
  /// may skip other accesses, and arithmetic faults in dropped code.
  Program slice(std::span<const std::size_t> observed) const;

  /// Whether run() reads or writes the contents of array argument `arg`.
  /// Arguments without data access may pass a null buffer (their extent
  /// still bounds-checks the observed accesses).
  bool accessesData(std::size_t arg) const { return dataArgs_[arg] != 0; }

  /// Executes all threads of `cfg`.  Throws Error on out-of-bounds
  /// accesses, arithmetic faults, or a scalar argument of the wrong type.
  /// `observer` may be empty.
  void run(const LaunchConfig& cfg, std::span<const ArgValue> args,
           const AccessObserver& observer = nullptr) const;

  /// Number of instructions, for tests and diagnostics.
  std::size_t size() const { return code_.size(); }

 private:
  struct Lowering;

  // The instruction set.  Registers hold 8 raw bytes each; f64 values are
  // stored by bit pattern.
  //   Mov                    r[d] = r[a]
  //   AddI ... OrI           r[d] = r[a] op r[b] on i64 (Add/Sub/Mul
  //                          checked; comparisons and And/Or yield 0/1)
  //   NegI NotI              r[d] = op r[a] on i64
  //   AddF ... GeF           r[d] = r[a] op r[b] on f64
  //   NegF Sqrt ... FToI     r[d] = op r[a] (FToI checks its range)
  //   Load        r[d] = arg b [r[a]]: observer, bounds check, read
  //   Touch       observer and bounds check of a read (slices only)
  //   StoreCheck  observer and bounds check of a store to arg b at r[a]
  //   StoreWrite  arg b [r[a]] = r[c]
  //   Jump        goto c
  //   JumpIfZero  if r[a] == 0 goto c
  //   LoopEnter   r[d] = r[a]; if r[d] >= r[b] goto c; else r[d+1] = r[d]
  //   LoopNext    ++r[d]; if r[d] < r[b] { r[d+1] = r[d]; goto c }
  //   Halt        end of the thread
#define POLYPART_IR_VM_OPS(X)                                                 \
  X(Mov)                                                                      \
  X(AddI) X(SubI) X(MulI) X(DivI) X(RemI) X(MinI) X(MaxI)                     \
  X(EqI) X(NeI) X(LtI) X(LeI) X(GtI) X(GeI) X(AndI) X(OrI)                    \
  X(NegI) X(NotI)                                                             \
  X(AddF) X(SubF) X(MulF) X(DivF) X(MinF) X(MaxF)                             \
  X(EqF) X(NeF) X(LtF) X(LeF) X(GtF) X(GeF)                                   \
  X(NegF) X(Sqrt) X(Rsqrt) X(Exp) X(Fabs) X(IToF) X(FToI)                     \
  X(Load) X(Touch) X(StoreCheck) X(StoreWrite)                                \
  X(Jump) X(JumpIfZero) X(LoopEnter) X(LoopNext) X(Halt)

  enum class Op : std::uint8_t {
#define POLYPART_IR_VM_OP(name) name,
    POLYPART_IR_VM_OPS(POLYPART_IR_VM_OP)
#undef POLYPART_IR_VM_OP
  };

  struct Insn {
    Op op = Op::Halt;
    std::uint32_t d = 0, a = 0, b = 0, c = 0;
  };

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// A branch or loop: the control instructions `ctl` (the second may be
  /// kNone) guard the body [begin, end).  slice() keeps the controls of every
  /// region whose body keeps an instruction.
  struct Region {
    std::uint32_t begin = 0, end = 0;
    std::uint32_t ctl[2] = {kNone, kNone};
  };

  struct ParamSig {
    std::string name;
    bool isArray = false;
    Type type = Type::I64;
  };

  std::string kernelName_;
  std::vector<ParamSig> params_;
  std::vector<Insn> code_;
  std::uint32_t numRegs_ = 0;
  /// Registers preloaded before the first thread: constants (bit patterns)
  /// and scalar arguments (by index).
  std::vector<std::pair<std::uint32_t, i64>> constRegs_;
  std::vector<std::pair<std::uint32_t, std::size_t>> scalarRegs_;
  std::vector<Region> regions_;  // empty in a slice
  std::vector<char> dataArgs_;   // per parameter
  bool sliced_ = false;

  void exec(i64* regs, char* const* base, const i64* extent,
            const AccessObserver* observer) const;
  [[noreturn]] void outOfBounds(bool store, std::uint32_t arg, i64 idx,
                                i64 extent) const;
};

/// Executes all threads of `cfg` on `kernel`: Program::compile(kernel).run().
/// Throws Error on out-of-bounds accesses or arithmetic faults; a malformed
/// argument list is a contract violation.  `observer` may be null.
void execute(const Kernel& kernel, const LaunchConfig& cfg,
             std::span<const ArgValue> args,
             const AccessObserver& observer = nullptr);

}  // namespace polypart::ir
