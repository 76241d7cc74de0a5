#include "ir/interp.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstring>
#include <map>

#include "support/error.h"
#include "support/str.h"

namespace polypart::ir {

namespace {

using u32 = std::uint32_t;

double asF(i64 bits) { return std::bit_cast<double>(bits); }
i64 ofF(double v) { return std::bit_cast<i64>(v); }

}  // namespace

// ---------------------------------------------------------------------------
// Lowering: one pass over the statement tree.  Every expression node gets a
// fresh register except locals, scalar arguments, builtins and constants,
// which read their own slots directly; builtins occupy registers 0..11 in
// ir::Builtin order, so the observer's builtin span is the register file's
// head.  Locals resolve through a scope stack scanned from the innermost
// binding outwards, so a later binding of a name shadows an earlier one.
// ---------------------------------------------------------------------------

struct Program::Lowering {
  const Kernel& kernel;
  Program& p;
  std::vector<Type> regType;
  std::vector<char> isLocal;  // slot of a let or loop variable (mutable)
  std::vector<std::pair<const std::string*, u32>> scope;
  std::map<std::pair<Type, i64>, u32> consts;
  std::vector<u32> scalarReg;

  /// A lowered expression's register; `fresh` when only code_.back() writes
  /// it, so the caller may retarget that instruction instead of copying.
  struct Val {
    u32 reg;
    bool fresh;
  };

  Lowering(const Kernel& k, Program& prog)
      : kernel(k), p(prog), scalarReg(k.numParams(), kNone) {
    for (int b = 0; b < 12; ++b) reg(Type::I64);
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw Error("kernel '" + kernel.name() + "': " + msg);
  }

  u32 reg(Type t, bool local = false) {
    regType.push_back(t);
    isLocal.push_back(local ? 1 : 0);
    return p.numRegs_++;
  }

  u32 here() const { return static_cast<u32>(p.code_.size()); }

  u32 emit(Op op, u32 d, u32 a = 0, u32 b = 0, u32 c = 0) {
    p.code_.push_back(Insn{op, d, a, b, c});
    return here() - 1;
  }

  u32 constant(Type t, i64 bits) {
    auto [it, inserted] = consts.try_emplace({t, bits}, 0);
    if (inserted) {
      it->second = reg(t);
      p.constRegs_.emplace_back(it->second, bits);
    }
    return it->second;
  }

  u32 lookup(const std::string& name) const {
    for (auto it = scope.rbegin(); it != scope.rend(); ++it)
      if (*it->first == name) return it->second;
    return kNone;
  }

  const Param& arrayParam(std::size_t arg, const char* what) const {
    if (arg >= kernel.numParams()) fail(std::string(what) + " arg index out of range");
    const Param& prm = kernel.param(arg);
    if (!prm.isArray) fail(std::string(what) + " on scalar parameter '" + prm.name + "'");
    return prm;
  }

  void requireInt(u32 r, const char* what) const {
    if (regType[r] != Type::I64) fail(std::string(what) + " must be i64");
  }

  Val unary(Op op, const Expr& e, u32 a) {
    u32 d = reg(e.type());
    emit(op, d, a);
    return {d, true};
  }

  Val expr(const Expr& e) {
    switch (e.kind()) {
      case Expr::Kind::IntConst: return {constant(Type::I64, e.intValue()), false};
      case Expr::Kind::FloatConst:
        return {constant(Type::F64, ofF(e.floatValue())), false};
      case Expr::Kind::Arg: {
        if (e.argIndex() >= kernel.numParams()) fail("arg index out of range");
        const Param& prm = kernel.param(e.argIndex());
        if (prm.isArray) fail("array parameter '" + prm.name + "' used as a scalar");
        if (prm.type != e.type()) fail("scalar '" + prm.name + "' used with wrong type");
        u32& r = scalarReg[e.argIndex()];
        if (r == kNone) {
          r = reg(prm.type);
          p.scalarRegs_.emplace_back(r, e.argIndex());
        }
        return {r, false};
      }
      case Expr::Kind::Local: {
        u32 r = lookup(e.localName());
        if (r == kNone) fail("use of undefined local '" + e.localName() + "'");
        if (regType[r] != e.type())
          fail("local '" + e.localName() + "' used with wrong type");
        return {r, false};
      }
      case Expr::Kind::BuiltinVar: return {static_cast<u32>(e.builtin()), false};
      case Expr::Kind::Load: {
        arrayParam(e.argIndex(), "load");
        Val i = expr(*e.operands()[0]);
        requireInt(i.reg, "load index");
        u32 d = reg(e.type());
        emit(Op::Load, d, i.reg, static_cast<u32>(e.argIndex()));
        p.dataArgs_[e.argIndex()] = 1;
        return {d, true};
      }
      case Expr::Kind::Unary: {
        Val v = expr(*e.operands()[0]);
        if (e.unOp() == UnOp::Neg)
          return unary(regType[v.reg] == Type::I64 ? Op::NegI : Op::NegF, e, v.reg);
        requireInt(v.reg, "operand of '!'");
        return unary(Op::NotI, e, v.reg);
      }
      case Expr::Kind::Binary: return binary(e);
      case Expr::Kind::Select: {
        u32 d = reg(e.type());
        into(e, d);
        return {d, false};
      }
      case Expr::Kind::Cast: {
        Val v = expr(*e.operands()[0]);
        if (regType[v.reg] == e.type()) return v;
        return unary(e.type() == Type::F64 ? Op::IToF : Op::FToI, e, v.reg);
      }
      case Expr::Kind::Math: {
        Val v = expr(*e.operands()[0]);
        if (regType[v.reg] != Type::F64) fail("math operand must be f64");
        switch (e.mathFn()) {
          case MathFn::Sqrt: return unary(Op::Sqrt, e, v.reg);
          case MathFn::Rsqrt: return unary(Op::Rsqrt, e, v.reg);
          case MathFn::Exp: return unary(Op::Exp, e, v.reg);
          case MathFn::Fabs: return unary(Op::Fabs, e, v.reg);
        }
        break;
      }
    }
    PP_ASSERT(false);
    return {0, false};
  }

  Val binary(const Expr& e) {
    Val a = expr(*e.operands()[0]);
    Val b = expr(*e.operands()[1]);
    if (regType[a.reg] != regType[b.reg]) fail("binary operand type mismatch");
    const bool isInt = regType[a.reg] == Type::I64;
    Op op = Op::Halt;
    switch (e.binOp()) {
      case BinOp::Add: op = isInt ? Op::AddI : Op::AddF; break;
      case BinOp::Sub: op = isInt ? Op::SubI : Op::SubF; break;
      case BinOp::Mul: op = isInt ? Op::MulI : Op::MulF; break;
      case BinOp::Div: op = isInt ? Op::DivI : Op::DivF; break;
      case BinOp::Rem: op = isInt ? Op::RemI : Op::Halt; break;
      case BinOp::Min: op = isInt ? Op::MinI : Op::MinF; break;
      case BinOp::Max: op = isInt ? Op::MaxI : Op::MaxF; break;
      case BinOp::Eq: op = isInt ? Op::EqI : Op::EqF; break;
      case BinOp::Ne: op = isInt ? Op::NeI : Op::NeF; break;
      case BinOp::Lt: op = isInt ? Op::LtI : Op::LtF; break;
      case BinOp::Le: op = isInt ? Op::LeI : Op::LeF; break;
      case BinOp::Gt: op = isInt ? Op::GtI : Op::GtF; break;
      case BinOp::Ge: op = isInt ? Op::GeI : Op::GeF; break;
      case BinOp::And: op = isInt ? Op::AndI : Op::Halt; break;
      case BinOp::Or: op = isInt ? Op::OrI : Op::Halt; break;
    }
    if (op == Op::Halt)
      fail(std::string("operator '") + binOpName(e.binOp()) + "' is not defined on f64");
    u32 d = reg(e.type());
    emit(op, d, a.reg, b.reg);
    return {d, true};
  }

  /// Lowers `e` with its result in register `dst`.  A select writes `dst`
  /// from whichever arm runs; any other fresh result is retargeted.
  void into(const Expr& e, u32 dst) {
    if (e.kind() == Expr::Kind::Select) {
      Val c = expr(*e.operands()[0]);
      requireInt(c.reg, "select condition");
      u32 jz = emit(Op::JumpIfZero, 0, c.reg);
      into(*e.operands()[1], dst);
      u32 j = emit(Op::Jump, 0);
      p.code_[jz].c = here();
      into(*e.operands()[2], dst);
      p.code_[j].c = here();
      p.regions_.push_back(Region{jz + 1, here(), {jz, j}});
      return;
    }
    Val v = expr(e);
    if (v.fresh)
      p.code_.back().d = dst;
    else if (v.reg != dst)
      emit(Op::Mov, dst, v.reg);
  }

  void stmt(const Stmt& s) {
    switch (s.kind()) {
      case Stmt::Kind::Block: {
        const std::size_t mark = scope.size();
        for (const StmtPtr& c : s.body()) stmt(*c);
        scope.resize(mark);
        return;
      }
      case Stmt::Kind::Let: {
        u32 r = reg(s.value()->type(), true);
        into(*s.value(), r);
        scope.emplace_back(&s.varName(), r);
        return;
      }
      case Stmt::Kind::Assign: {
        u32 r = lookup(s.varName());
        if (r == kNone) fail("assignment to undefined local '" + s.varName() + "'");
        if (regType[r] != s.value()->type())
          fail("assignment type mismatch on '" + s.varName() + "'");
        into(*s.value(), r);
        return;
      }
      case Stmt::Kind::Store: {
        arrayParam(s.arrayArg(), "store");
        const u32 arg = static_cast<u32>(s.arrayArg());
        Val i = expr(*s.index());
        requireInt(i.reg, "store index");
        emit(Op::StoreCheck, 0, i.reg, arg);
        Val v = expr(*s.value());
        emit(Op::StoreWrite, 0, i.reg, arg, v.reg);
        p.dataArgs_[arg] = 1;
        return;
      }
      case Stmt::Kind::For: {
        Val lo = expr(*s.lo());
        Val hi = expr(*s.hi());
        requireInt(lo.reg, "loop bound");
        requireInt(hi.reg, "loop bound");
        // The bound is evaluated once: snapshot a local the body may assign.
        u32 hiReg = hi.reg;
        if (isLocal[hiReg]) {
          hiReg = reg(Type::I64);
          emit(Op::Mov, hiReg, hi.reg);
        }
        // The counter drives the loop; the variable (the next register) is
        // what the body sees, so assigning it cannot change the trip count.
        u32 counter = reg(Type::I64);
        u32 var = reg(Type::I64, true);
        PP_ASSERT(var == counter + 1);
        u32 enter = emit(Op::LoopEnter, counter, lo.reg, hiReg);
        const std::size_t mark = scope.size();
        scope.emplace_back(&s.varName(), var);
        u32 bodyBegin = here();
        stmt(*s.body()[0]);
        u32 next = emit(Op::LoopNext, counter, 0, hiReg, bodyBegin);
        p.code_[enter].c = here();
        scope.resize(mark);
        p.regions_.push_back(Region{bodyBegin, next, {enter, next}});
        return;
      }
      case Stmt::Kind::If: {
        Val c = expr(*s.cond());
        requireInt(c.reg, "branch condition");
        u32 jz = emit(Op::JumpIfZero, 0, c.reg);
        const std::size_t mark = scope.size();
        stmt(*s.body()[0]);
        scope.resize(mark);
        u32 j = kNone;
        if (s.body()[1]) {
          j = emit(Op::Jump, 0);
          p.code_[jz].c = here();
          stmt(*s.body()[1]);
          scope.resize(mark);
          p.code_[j].c = here();
        } else {
          p.code_[jz].c = here();
        }
        p.regions_.push_back(Region{jz + 1, here(), {jz, j}});
        return;
      }
    }
  }
};

Program Program::compile(const Kernel& kernel) {
  Program p;
  p.kernelName_ = kernel.name();
  for (const Param& prm : kernel.params())
    p.params_.push_back(ParamSig{prm.name, prm.isArray, prm.type});
  p.dataArgs_.assign(kernel.numParams(), 0);
  Lowering lower(kernel, p);
  lower.stmt(*kernel.body());
  lower.emit(Op::Halt, 0);
  return p;
}

// ---------------------------------------------------------------------------
// Slicing.  A backward closure over registers, flow-insensitive: when a kept
// instruction reads a register, every instruction writing that register is
// kept.  Temporaries are written once, so only locals assigned on several
// paths keep more than a precise slice would, and keeping more never changes
// what the kept loads observe.
// ---------------------------------------------------------------------------

namespace {

/// Registers `in` reads (up to two) and writes (up to two).
struct Operands {
  u32 reads[2] = {0, 0};
  int numReads = 0;
  u32 writes[2] = {0, 0};
  int numWrites = 0;
};

}  // namespace

Program Program::slice(std::span<const std::size_t> observed) const {
  PP_ASSERT_MSG(!sliced_, "slice of a sliced program");
  auto operands = [](const Insn& in) {
    Operands o;
    auto r = [&](u32 x) { o.reads[o.numReads++] = x; };
    auto w = [&](u32 x) { o.writes[o.numWrites++] = x; };
    switch (in.op) {
      case Op::Jump:
      case Op::Halt:
        break;
      case Op::JumpIfZero:
      case Op::Touch:
      case Op::StoreCheck:
        r(in.a);
        break;
      case Op::StoreWrite:
        r(in.a);
        r(in.c);
        break;
      case Op::LoopEnter:
        r(in.a);
        r(in.b);
        w(in.d);
        w(in.d + 1);
        break;
      case Op::LoopNext:
        r(in.d);
        r(in.b);
        w(in.d);
        w(in.d + 1);
        break;
      case Op::Mov: case Op::NegI: case Op::NotI: case Op::NegF:
      case Op::Sqrt: case Op::Rsqrt: case Op::Exp: case Op::Fabs:
      case Op::IToF: case Op::FToI: case Op::Load:
        r(in.a);
        w(in.d);
        break;
      default:  // binary
        r(in.a);
        r(in.b);
        w(in.d);
        break;
    }
    return o;
  };

  const std::size_t n = code_.size();
  std::vector<char> keep(n, 0), need(numRegs_, 0);
  std::vector<char> isObserved(params_.size(), 0), storesKept(params_.size(), 0);
  for (std::size_t a : observed) isObserved[a] = 1;
  std::vector<std::vector<u32>> writers(numRegs_), stores(params_.size());
  for (u32 i = 0; i < n; ++i) {
    const Insn& in = code_[i];
    Operands o = operands(in);
    for (int k = 0; k < o.numWrites; ++k) writers[o.writes[k]].push_back(i);
    if (in.op == Op::StoreCheck || in.op == Op::StoreWrite) stores[in.b].push_back(i);
    if (in.op == Op::Load && isObserved[in.b]) keep[i] = 1;
  }
  keep[n - 1] = 1;  // Halt

  bool changed = true;
  auto mark = [&](u32 i) {
    if (!keep[i]) {
      keep[i] = 1;
      changed = true;
    }
  };
  while (changed) {
    changed = false;
    for (u32 i = 0; i < n; ++i) {
      if (!keep[i]) continue;
      Operands o = operands(code_[i]);
      for (int k = 0; k < o.numReads; ++k) {
        u32 r = o.reads[k];
        if (need[r]) continue;
        need[r] = 1;
        for (u32 w : writers[r]) mark(w);
      }
    }
    for (const Region& rg : regions_) {
      for (u32 i = rg.begin; i < rg.end; ++i) {
        if (!keep[i] || i == rg.ctl[0] || i == rg.ctl[1]) continue;
        for (u32 c : rg.ctl)
          if (c != kNone) mark(c);
        break;
      }
    }
    // A load whose value matters reads what earlier stores left behind.
    for (u32 i = 0; i < n; ++i) {
      const Insn& in = code_[i];
      if (!keep[i] || in.op != Op::Load || !need[in.d] || storesKept[in.b]) continue;
      storesKept[in.b] = 1;
      for (u32 s : stores[in.b]) mark(s);
    }
  }

  Program s;
  s.kernelName_ = kernelName_;
  s.params_ = params_;
  s.numRegs_ = numRegs_;
  s.constRegs_ = constRegs_;
  s.scalarRegs_ = scalarRegs_;
  s.dataArgs_.assign(params_.size(), 0);
  s.sliced_ = true;
  std::vector<u32> newIndex(n + 1);
  u32 k = 0;
  for (u32 i = 0; i < n; ++i) {
    newIndex[i] = k;
    if (keep[i]) ++k;
  }
  newIndex[n] = k;
  for (u32 i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    Insn in = code_[i];
    switch (in.op) {
      case Op::Jump:
      case Op::JumpIfZero:
      case Op::LoopEnter:
      case Op::LoopNext:
        in.c = newIndex[in.c];
        break;
      case Op::Load:
        if (need[in.d])
          s.dataArgs_[in.b] = 1;
        else
          in.op = Op::Touch;
        break;
      case Op::StoreCheck:
      case Op::StoreWrite:
        s.dataArgs_[in.b] = 1;
        break;
      default:
        break;
    }
    s.code_.push_back(in);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

void Program::outOfBounds(bool store, u32 arg, i64 idx, i64 extent) const {
  throw Error(std::string("out-of-bounds ") + (store ? "store" : "load") +
              " in kernel '" + kernelName_ + "' on '" + params_[arg].name +
              "' index " + std::to_string(idx) + " of " + std::to_string(extent));
}

namespace {

[[noreturn]] __attribute__((noinline)) void divFault(const std::string& kernel,
                                                     bool rem, i64 divisor) {
  const char* what = rem ? "remainder" : "division";
  if (divisor == 0)
    throw Error(std::string("integer ") + what + " by zero in kernel '" + kernel + "'");
  throw OverflowError(std::string("integer ") + what + " overflow in kernel '" +
                      kernel + "'");
}

[[noreturn]] __attribute__((noinline)) void castFault(const std::string& kernel,
                                                      double x) {
  throw Error("f64-to-i64 cast of " + format("%g", x) + " out of range in kernel '" +
              kernel + "'");
}

}  // namespace

void Program::exec(i64* R, char* const* base, const i64* extent,
                   const AccessObserver* observer) const {
  const Insn* const code = code_.data();
  const Insn* ip = code;
  auto observe = [&](u32 arg, bool isWrite, i64 idx) {
    if (observer) (*observer)(arg, isWrite, idx, std::span<const i64, 12>(R, 12));
  };
  // Extents are non-negative (run() checks), so one unsigned comparison
  // rejects negative indices too.
  auto check = [&](bool store, u32 arg, i64 idx) {
    if (static_cast<u64>(idx) >= static_cast<u64>(extent[arg]))
      outOfBounds(store, arg, idx, extent[arg]);
  };
  // Threaded dispatch (labels as values, a GCC/Clang extension): every
  // handler jumps straight to the next instruction's handler, which the
  // branch predictor tracks per opcode instead of through one shared switch.
  static const void* const kHandlers[] = {
#define POLYPART_IR_VM_OP(name) &&L_##name,
      POLYPART_IR_VM_OPS(POLYPART_IR_VM_OP)
#undef POLYPART_IR_VM_OP
  };
  const Insn* in;
#define NEXT                                              \
  do {                                                    \
    in = ip++;                                            \
    goto *kHandlers[static_cast<std::size_t>(in->op)];    \
  } while (0)
  NEXT;

L_Mov: R[in->d] = R[in->a]; NEXT;
L_AddI: R[in->d] = checkedAdd(R[in->a], R[in->b]); NEXT;
L_SubI: R[in->d] = checkedSub(R[in->a], R[in->b]); NEXT;
L_MulI: R[in->d] = checkedMul(R[in->a], R[in->b]); NEXT;
L_DivI:
L_RemI: {
  const i64 x = R[in->a], y = R[in->b];
  if (y == 0 || (y == -1 && x == INT64_MIN))
    divFault(kernelName_, in->op == Op::RemI, y);
  R[in->d] = in->op == Op::DivI ? x / y : x % y;
  NEXT;
}
L_MinI: R[in->d] = std::min(R[in->a], R[in->b]); NEXT;
L_MaxI: R[in->d] = std::max(R[in->a], R[in->b]); NEXT;
L_EqI: R[in->d] = R[in->a] == R[in->b]; NEXT;
L_NeI: R[in->d] = R[in->a] != R[in->b]; NEXT;
L_LtI: R[in->d] = R[in->a] < R[in->b]; NEXT;
L_LeI: R[in->d] = R[in->a] <= R[in->b]; NEXT;
L_GtI: R[in->d] = R[in->a] > R[in->b]; NEXT;
L_GeI: R[in->d] = R[in->a] >= R[in->b]; NEXT;
L_AndI: R[in->d] = R[in->a] != 0 && R[in->b] != 0; NEXT;
L_OrI: R[in->d] = R[in->a] != 0 || R[in->b] != 0; NEXT;
L_NegI: R[in->d] = checkedNeg(R[in->a]); NEXT;
L_NotI: R[in->d] = R[in->a] == 0; NEXT;
L_AddF: R[in->d] = ofF(asF(R[in->a]) + asF(R[in->b])); NEXT;
L_SubF: R[in->d] = ofF(asF(R[in->a]) - asF(R[in->b])); NEXT;
L_MulF: R[in->d] = ofF(asF(R[in->a]) * asF(R[in->b])); NEXT;
L_DivF: R[in->d] = ofF(asF(R[in->a]) / asF(R[in->b])); NEXT;
L_MinF: {
  const double x = asF(R[in->a]), y = asF(R[in->b]);
  R[in->d] = ofF(x < y ? x : y);
  NEXT;
}
L_MaxF: {
  const double x = asF(R[in->a]), y = asF(R[in->b]);
  R[in->d] = ofF(x > y ? x : y);
  NEXT;
}
L_EqF: R[in->d] = asF(R[in->a]) == asF(R[in->b]); NEXT;
L_NeF: R[in->d] = asF(R[in->a]) != asF(R[in->b]); NEXT;
L_LtF: R[in->d] = asF(R[in->a]) < asF(R[in->b]); NEXT;
L_LeF: R[in->d] = asF(R[in->a]) <= asF(R[in->b]); NEXT;
L_GtF: R[in->d] = asF(R[in->a]) > asF(R[in->b]); NEXT;
L_GeF: R[in->d] = asF(R[in->a]) >= asF(R[in->b]); NEXT;
L_NegF: R[in->d] = ofF(-asF(R[in->a])); NEXT;
L_Sqrt: R[in->d] = ofF(std::sqrt(asF(R[in->a]))); NEXT;
L_Rsqrt: R[in->d] = ofF(1.0 / std::sqrt(asF(R[in->a]))); NEXT;
L_Exp: R[in->d] = ofF(std::exp(asF(R[in->a]))); NEXT;
L_Fabs: R[in->d] = ofF(std::fabs(asF(R[in->a]))); NEXT;
L_IToF: R[in->d] = ofF(static_cast<double>(R[in->a])); NEXT;
L_FToI: {
  const double x = asF(R[in->a]);
  // Truncation is defined exactly on [-2^63, 2^63); NaN fails too.
  if (!(x >= -0x1p63 && x < 0x1p63)) castFault(kernelName_, x);
  R[in->d] = static_cast<i64>(x);
  NEXT;
}
L_Load: {
  const i64 idx = R[in->a];
  observe(in->b, false, idx);
  check(false, in->b, idx);
  std::memcpy(&R[in->d], base[in->b] + idx * 8, 8);
  NEXT;
}
L_Touch: {
  const i64 idx = R[in->a];
  observe(in->b, false, idx);
  check(false, in->b, idx);
  NEXT;
}
L_StoreCheck: {
  const i64 idx = R[in->a];
  observe(in->b, true, idx);
  check(true, in->b, idx);
  NEXT;
}
L_StoreWrite:
  std::memcpy(base[in->b] + R[in->a] * 8, &R[in->c], 8);
  NEXT;
L_Jump: ip = code + in->c; NEXT;
L_JumpIfZero:
  if (R[in->a] == 0) ip = code + in->c;
  NEXT;
L_LoopEnter:
  R[in->d] = R[in->a];
  if (R[in->d] < R[in->b])
    R[in->d + 1] = R[in->d];
  else
    ip = code + in->c;
  NEXT;
L_LoopNext: {
  const i64 v = R[in->d] + 1;
  R[in->d] = v;
  if (v < R[in->b]) {
    R[in->d + 1] = v;
    ip = code + in->c;
  }
  NEXT;
}
L_Halt: return;
#undef NEXT
}

void Program::run(const LaunchConfig& cfg, std::span<const ArgValue> args,
                  const AccessObserver& observer) const {
  PP_ASSERT_MSG(args.size() == params_.size(), "argument count mismatch");
  std::vector<char*> base(args.size(), nullptr);
  std::vector<i64> extent(args.size(), 0);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (!params_[i].isArray) {
      PP_ASSERT_MSG(args[i].buffer == nullptr, "scalar/array argument mismatch");
      continue;
    }
    PP_ASSERT_MSG(args[i].buffer != nullptr || !dataArgs_[i],
                  "scalar/array argument mismatch");
    PP_ASSERT_MSG(args[i].numElements >= 0, "negative array extent");
    base[i] = static_cast<char*>(args[i].buffer);
    extent[i] = args[i].numElements;
  }

  std::vector<i64> regs(numRegs_, 0);
  for (auto [r, bits] : constRegs_) regs[r] = bits;
  for (auto [r, arg] : scalarRegs_) {
    const Value& v = args[arg].scalar;
    if (v.type != params_[arg].type)
      throw Error("kernel '" + kernelName_ + "': scalar argument '" +
                  params_[arg].name + "' is " + typeName(v.type) + ", expected " +
                  typeName(params_[arg].type));
    regs[r] = v.type == Type::I64 ? v.i : ofF(v.f);
  }
  auto set = [&](Builtin b, i64 v) { regs[static_cast<std::size_t>(b)] = v; };
  set(Builtin::BlockDimX, cfg.block.x);
  set(Builtin::BlockDimY, cfg.block.y);
  set(Builtin::BlockDimZ, cfg.block.z);
  set(Builtin::GridDimX, cfg.grid.x);
  set(Builtin::GridDimY, cfg.grid.y);
  set(Builtin::GridDimZ, cfg.grid.z);

  const AccessObserver* obs = observer ? &observer : nullptr;
  for (i64 bz = 0; bz < cfg.grid.z; ++bz) {
    set(Builtin::BlockIdxZ, bz);
    for (i64 by = 0; by < cfg.grid.y; ++by) {
      set(Builtin::BlockIdxY, by);
      for (i64 bx = 0; bx < cfg.grid.x; ++bx) {
        set(Builtin::BlockIdxX, bx);
        for (i64 tz = 0; tz < cfg.block.z; ++tz) {
          set(Builtin::ThreadIdxZ, tz);
          for (i64 ty = 0; ty < cfg.block.y; ++ty) {
            set(Builtin::ThreadIdxY, ty);
            for (i64 tx = 0; tx < cfg.block.x; ++tx) {
              set(Builtin::ThreadIdxX, tx);
              exec(regs.data(), base.data(), extent.data(), obs);
            }
          }
        }
      }
    }
  }
}

void execute(const Kernel& kernel, const LaunchConfig& cfg,
             std::span<const ArgValue> args,
             const AccessObserver& observer) {
  PP_ASSERT_MSG(args.size() == kernel.numParams(), "argument count mismatch");
  for (std::size_t i = 0; i < args.size(); ++i) {
    bool isArray = kernel.param(i).isArray;
    PP_ASSERT_MSG(isArray == (args[i].buffer != nullptr),
                  "scalar/array argument mismatch");
  }
  Program::compile(kernel).run(cfg, args, observer);
}

}  // namespace polypart::ir
