#include "codegen/bytecode.h"

#include <algorithm>

#include "support/arith.h"
#include "support/error.h"

namespace polypart::codegen {

const char* enumTierName(EnumTier t) {
  switch (t) {
    case EnumTier::Interpret: return "interpret";
    case EnumTier::Specialized: return "specialized";
  }
  PP_ASSERT(false);
  return "";
}

namespace bc {

using pset::AstExpr;

namespace {

/// Expression compiler: post-order walk assigning one fresh register per
/// subexpression result.  Register numbering restarts at every expression,
/// so the register file is sized by the deepest single expression, and each
/// register is written exactly once within a slice (specialize() relies on
/// this to re-materialize folded operands).
class ExprCompiler {
 public:
  explicit ExprCompiler(std::vector<Insn>& code) : code_(code) {}

  CompiledExpr compile(const AstExpr& e) {
    CompiledExpr out;
    out.begin = static_cast<std::uint32_t>(code_.size());
    next_ = 0;
    dep_ = 0;
    out.out = emit(e);
    out.end = static_cast<std::uint32_t>(code_.size());
    out.loopDepNeeded = dep_;
    maxRegs_ = std::max(maxRegs_, next_);
    return out;
  }

  std::uint16_t maxRegs() const { return maxRegs_; }

 private:
  std::uint16_t fresh() {
    PP_ASSERT_MSG(next_ < 0xffff, "enumerator expression too deep");
    return next_++;
  }

  std::uint16_t emit(const AstExpr& e) {
    switch (e.kind()) {
      case AstExpr::Kind::Const: {
        std::uint16_t r = fresh();
        code_.push_back({Op::Const, r, 0, 0, e.value()});
        return r;
      }
      case AstExpr::Kind::Param: {
        std::uint16_t r = fresh();
        code_.push_back({Op::Param, r, 0, 0, static_cast<i64>(e.index())});
        return r;
      }
      case AstExpr::Kind::LoopVar: {
        std::uint16_t r = fresh();
        dep_ = std::max(dep_, static_cast<std::uint16_t>(e.index() + 1));
        code_.push_back({Op::Loop, r, 0, 0, static_cast<i64>(e.index())});
        return r;
      }
      case AstExpr::Kind::Add: return binary(Op::Add, e);
      case AstExpr::Kind::Sub: return binary(Op::Sub, e);
      case AstExpr::Kind::Mul: return binary(Op::Mul, e);
      case AstExpr::Kind::FloorDiv: return binary(Op::FloorDiv, e);
      case AstExpr::Kind::CeilDiv: return binary(Op::CeilDiv, e);
      case AstExpr::Kind::Neg: {
        std::uint16_t a = emit(e.kids()[0]);
        std::uint16_t r = fresh();
        code_.push_back({Op::Neg, r, a, 0, 0});
        return r;
      }
      // N-ary min/max fold left-to-right, matching the interpreter's
      // incremental evaluation order.
      case AstExpr::Kind::Min: return nary(Op::Min, e);
      case AstExpr::Kind::Max: return nary(Op::Max, e);
    }
    PP_ASSERT(false);
    return 0;
  }

  std::uint16_t binary(Op op, const AstExpr& e) {
    std::uint16_t a = emit(e.kids()[0]);
    std::uint16_t b = emit(e.kids()[1]);
    std::uint16_t r = fresh();
    code_.push_back({op, r, a, b, 0});
    return r;
  }

  std::uint16_t nary(Op op, const AstExpr& e) {
    std::uint16_t acc = emit(e.kids()[0]);
    for (std::size_t i = 1; i < e.kids().size(); ++i) {
      std::uint16_t b = emit(e.kids()[i]);
      std::uint16_t r = fresh();
      code_.push_back({op, r, acc, b, 0});
      acc = r;
    }
    return acc;
  }

  std::vector<Insn>& code_;
  std::uint16_t next_ = 0;
  std::uint16_t dep_ = 0;
  std::uint16_t maxRegs_ = 0;
};

}  // namespace

i64 Program::eval(const CompiledExpr& e, std::span<const i64> params,
                  std::span<const i64> loops, i64* regs) const {
  if (e.isConst) return e.constValue;
  for (std::uint32_t i = e.begin; i != e.end; ++i) {
    const Insn& in = code[i];
    switch (in.op) {
      case Op::Const: regs[in.dst] = in.imm; break;
      case Op::Param:
        PP_ASSERT(static_cast<std::size_t>(in.imm) < params.size());
        regs[in.dst] = params[static_cast<std::size_t>(in.imm)];
        break;
      case Op::Loop:
        PP_ASSERT(static_cast<std::size_t>(in.imm) < loops.size());
        regs[in.dst] = loops[static_cast<std::size_t>(in.imm)];
        break;
      case Op::Add: regs[in.dst] = checkedAdd(regs[in.a], regs[in.b]); break;
      case Op::Sub: regs[in.dst] = checkedSub(regs[in.a], regs[in.b]); break;
      case Op::Mul: regs[in.dst] = checkedMul(regs[in.a], regs[in.b]); break;
      case Op::FloorDiv:
        regs[in.dst] = polypart::floorDiv(regs[in.a], regs[in.b]);
        break;
      case Op::CeilDiv:
        regs[in.dst] = polypart::ceilDiv(regs[in.a], regs[in.b]);
        break;
      case Op::Neg: regs[in.dst] = checkedNeg(regs[in.a]); break;
      case Op::Min: regs[in.dst] = std::min(regs[in.a], regs[in.b]); break;
      case Op::Max: regs[in.dst] = std::max(regs[in.a], regs[in.b]); break;
    }
  }
  return regs[e.out];
}

Program compile(std::span<const pset::ScanNest> nests) {
  Program p;
  ExprCompiler ec(p.code);
  p.nests.reserve(nests.size());
  for (const pset::ScanNest& nest : nests) {
    CompiledNest cn;
    cn.guards.reserve(nest.guards.size());
    for (const AstExpr& g : nest.guards) cn.guards.push_back(ec.compile(g));
    cn.levels.reserve(nest.levels.size());
    for (const pset::ScanLevel& l : nest.levels)
      cn.levels.push_back({ec.compile(l.lower), ec.compile(l.upper)});
    p.nests.push_back(std::move(cn));
  }
  p.numRegs = std::max<std::uint16_t>(ec.maxRegs(), 1);
  return p;
}

namespace {

/// Specializes one expression slice against known parameter values.
/// Constant subresults propagate through a per-register value table; an
/// instruction folds away when all of its inputs are known and the checked
/// operation provably does not overflow, and is emitted otherwise (with any
/// folded operands re-materialized as Const loads first).
class Specializer {
 public:
  Specializer(const Program& src, Program& dst, std::span<const i64> params)
      : src_(src), dst_(dst), params_(params) {}

  CompiledExpr run(const CompiledExpr& e) {
    if (e.isConst) return e;
    CompiledExpr out = e;
    known_.assign(src_.numRegs, false);
    value_.assign(src_.numRegs, 0);
    materialized_.assign(src_.numRegs, false);
    out.begin = static_cast<std::uint32_t>(dst_.code.size());
    for (std::uint32_t i = e.begin; i != e.end; ++i) step(src_.code[i]);
    out.end = static_cast<std::uint32_t>(dst_.code.size());
    if (known_[e.out] && out.begin == out.end) {
      out.isConst = true;
      out.constValue = value_[e.out];
      return out;
    }
    // A partially folded slice: any still-constant final result would have
    // an empty slice (handled above); otherwise the emitted code computes
    // it.  loopDepNeeded stays that of the unspecialized expression so all
    // tiers make identical coalescing decisions.
    PP_ASSERT(!known_[e.out] || materialized_[e.out]);
    return out;
  }

 private:
  void step(const Insn& in) {
    switch (in.op) {
      case Op::Const: setKnown(in.dst, in.imm); return;
      case Op::Param:
        PP_ASSERT(static_cast<std::size_t>(in.imm) < params_.size());
        setKnown(in.dst, params_[static_cast<std::size_t>(in.imm)]);
        return;
      case Op::Loop:
        emit(in);
        return;
      case Op::Add: foldBinary(in, [](i64 a, i64 b, i64* r) {
          return !__builtin_add_overflow(a, b, r);
        });
        return;
      case Op::Sub: foldBinary(in, [](i64 a, i64 b, i64* r) {
          return !__builtin_sub_overflow(a, b, r);
        });
        return;
      case Op::Mul: foldBinary(in, [](i64 a, i64 b, i64* r) {
          return !__builtin_mul_overflow(a, b, r);
        });
        return;
      case Op::FloorDiv: foldBinary(in, [](i64 a, i64 b, i64* r) {
          if (b <= 0) return false;  // buildScan guarantees positive divisors
          *r = polypart::floorDiv(a, b);
          return true;
        });
        return;
      case Op::CeilDiv: foldBinary(in, [](i64 a, i64 b, i64* r) {
          if (b <= 0) return false;
          *r = polypart::ceilDiv(a, b);
          return true;
        });
        return;
      case Op::Neg:
        if (known_[in.a]) {
          i64 r;
          if (!__builtin_sub_overflow(i64{0}, value_[in.a], &r)) {
            setKnown(in.dst, r);
            return;
          }
        }
        emit(in);
        return;
      case Op::Min: foldBinary(in, [](i64 a, i64 b, i64* r) {
          *r = std::min(a, b);
          return true;
        });
        return;
      case Op::Max: foldBinary(in, [](i64 a, i64 b, i64* r) {
          *r = std::max(a, b);
          return true;
        });
        return;
    }
    PP_ASSERT(false);
  }

  template <typename Fold>
  void foldBinary(const Insn& in, Fold fold) {
    if (known_[in.a] && known_[in.b]) {
      i64 r;
      if (fold(value_[in.a], value_[in.b], &r)) {
        setKnown(in.dst, r);
        return;
      }
    }
    emit(in);
  }

  void setKnown(std::uint16_t reg, i64 v) {
    known_[reg] = true;
    value_[reg] = v;
  }

  /// Emits an instruction, materializing constant-known operand registers
  /// that have no emitted definition.  Registers are single-assignment per
  /// slice, so a materialized Const stays valid for later uses.
  void emit(const Insn& in) {
    if (in.op != Op::Const && in.op != Op::Param && in.op != Op::Loop) {
      materialize(in.a);
      bool unary = in.op == Op::Neg;
      if (!unary) materialize(in.b);
    }
    dst_.code.push_back(in);
    materialized_[in.dst] = true;
  }

  void materialize(std::uint16_t reg) {
    if (materialized_[reg] || !known_[reg]) return;
    dst_.code.push_back({Op::Const, reg, 0, 0, value_[reg]});
    materialized_[reg] = true;
  }

  const Program& src_;
  Program& dst_;
  std::span<const i64> params_;
  std::vector<bool> known_, materialized_;
  std::vector<i64> value_;
};

}  // namespace

Program specialize(const Program& p, std::span<const i64> params) {
  Program out;
  out.numRegs = p.numRegs;
  Specializer sp(p, out, params);
  out.nests.reserve(p.nests.size());
  for (const CompiledNest& cn : p.nests) {
    CompiledNest sn;
    sn.guards.reserve(cn.guards.size());
    for (const CompiledExpr& g : cn.guards) sn.guards.push_back(sp.run(g));
    sn.levels.reserve(cn.levels.size());
    for (const CompiledLevel& l : cn.levels)
      sn.levels.push_back({sp.run(l.lower), sp.run(l.upper)});
    out.nests.push_back(std::move(sn));
  }
  return out;
}

}  // namespace bc
}  // namespace polypart::codegen
