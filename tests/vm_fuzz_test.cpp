// Differential fuzzing of the compiled kernel engine (ir::Program) against
// the tree-walking oracle (tests/ir_oracle.h).
//
// Two generators feed it: the affine kernels of tests/fuzz_kernels.h (the
// pipeline fuzz suite's), run whole and as partitioned clones, and a random
// program generator that reaches every IR node kind — nested loops whose
// variables and bounds the body reassigns, if/else, selects, casts, math,
// i64 gathers, read-after-write through an array the kernel also stores
// to — with an optional injected fault (out-of-bounds load or store,
// division by zero, i64 overflow, INT64_MIN / -1, an f64 → i64 cast of NaN).
// Both engines must leave bit-identical buffers, report the same observer
// sequence (builtins included), and throw the same exception type and
// message.  On runs that complete, every address slice must observe the
// same reads as the full program.
//
// Seeds follow tests/fuzz_util.h; a failing case replays alone via
// POLYPART_FUZZ_SEED.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <string>
#include <typeinfo>
#include <vector>

#include "fuzz_kernels.h"
#include "fuzz_util.h"
#include "ir/builder.h"
#include "ir/interp.h"
#include "ir/transform.h"
#include "ir_oracle.h"

namespace polypart::ir {
namespace {

using Engine = void (*)(const Kernel&, const LaunchConfig&,
                        std::span<const ArgValue>, const AccessObserver&);

struct Access {
  std::size_t arg;
  bool isWrite;
  i64 flat;
  std::array<i64, 12> builtins;
  bool operator==(const Access&) const = default;
};

/// Everything one engine run leaves behind.
struct Outcome {
  std::vector<std::vector<i64>> buffers;  // raw 8-byte elements per array
  std::vector<Access> accesses;
  std::string error;  // "<type>: <message>", empty when the run completed
};

/// Runs `k` on private copies of `buffers` (one per array parameter, in
/// order) with `scalars` for the scalar parameters, in parameter order.
Outcome runEngine(Engine run, const Kernel& k, const LaunchConfig& cfg,
                  const std::vector<ArgValue>& scalars,
                  std::vector<std::vector<i64>> buffers) {
  Outcome o;
  std::vector<ArgValue> args;
  std::size_t si = 0, bi = 0;
  for (const Param& p : k.params()) {
    if (p.isArray) {
      std::vector<i64>& buf = buffers[bi++];
      args.push_back(ArgValue::ofBuffer(buf.data(), static_cast<i64>(buf.size())));
    } else {
      args.push_back(scalars[si++]);
    }
  }
  AccessObserver obs = [&](std::size_t arg, bool isWrite, i64 flat,
                           std::span<const i64, 12> b) {
    Access a{arg, isWrite, flat, {}};
    std::copy(b.begin(), b.end(), a.builtins.begin());
    o.accesses.push_back(a);
  };
  try {
    run(k, cfg, args, obs);
  } catch (const std::exception& e) {
    o.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  o.buffers = std::move(buffers);
  return o;
}

void expectSameOutcome(const Outcome& got, const Outcome& want) {
  EXPECT_EQ(got.error, want.error);
  ASSERT_EQ(got.buffers.size(), want.buffers.size());
  for (std::size_t i = 0; i < got.buffers.size(); ++i)
    EXPECT_EQ(got.buffers[i], want.buffers[i]) << "array #" << i;
  ASSERT_EQ(got.accesses.size(), want.accesses.size());
  for (std::size_t i = 0; i < got.accesses.size(); ++i)
    ASSERT_TRUE(got.accesses[i] == want.accesses[i]) << "access #" << i;
}

std::vector<i64> bitsOf(const std::vector<double>& v) {
  std::vector<i64> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  return out;
}

TEST(CompiledVsOracle, AffineFuzzKernelsWholeAndPartitioned) {
  const int iters = fuzz::caseCount(30);
  for (int iter = 0; iter < iters; ++iter) {
    fuzz::SeededRng rng(fuzz::seedFor(7171, iter));
    SCOPED_TRACE(rng.replay());
    fuzz::GeneratedKernel g = fuzz::generate(rng, iter);
    const i64 n = g.is2d ? 9 : 70;
    const i64 elems = g.is2d ? n * n : n;
    std::vector<std::vector<i64>> buffers;
    for (int i = 0; i <= g.numInputs; ++i) {  // inputs..., then out
      std::vector<double> v(static_cast<std::size_t>(elems));
      for (double& x : v) x = rng.uniform() * 4 - 2;
      buffers.push_back(bitsOf(v));
    }
    const LaunchConfig cfg = g.is2d ? LaunchConfig{{(n + 3) / 4, (n + 2) / 3, 1}, {4, 3, 1}}
                                    : LaunchConfig{{(n + 15) / 16, 1, 1}, {16, 1, 1}};
    const std::vector<ArgValue> scalars = {ArgValue::ofInt(n)};
    const Outcome want = runEngine(&oracle::execute, *g.kernel, cfg, scalars, buffers);
    EXPECT_EQ(want.error, "");
    expectSameOutcome(runEngine(&execute, *g.kernel, cfg, scalars, buffers), want);

    // A partitioned clone over a random block box.
    KernelPtr part = partitionKernel(*g.kernel);
    const i64 lx = rng.range(0, cfg.grid.x - 1), hx = rng.range(lx + 1, cfg.grid.x);
    const i64 ly = rng.range(0, cfg.grid.y - 1), hy = rng.range(ly + 1, cfg.grid.y);
    const LaunchConfig partCfg{{hx - lx, hy - ly, 1}, cfg.block};
    std::vector<ArgValue> partScalars = scalars;
    for (i64 v : {lx, ly, i64{0}, hx, hy, i64{1}}) partScalars.push_back(ArgValue::ofInt(v));
    expectSameOutcome(runEngine(&execute, *part, partCfg, partScalars, buffers),
                      runEngine(&oracle::execute, *part, partCfg, partScalars, buffers));
  }
}

// -- random programs over every node kind --------------------------------

enum class Fault { None, LoadOob, StoreOob, DivZero, RemZero, AddOverflow,
                   MulOverflow, NegOverflow, DivOverflow, CastNaN, kCount };

/// Builds one random kernel `rand(n, s, ia, fa, oi, of)`: ia/oi hold i64,
/// fa/of f64, every array has n elements.  Indices go through
/// ((e % n) + n) % n, so only an injected fault leaves the bounds; loop
/// bounds are clamped to a handful of trips.
class ProgramGen {
 public:
  ProgramGen(Rng& rng, int index, Fault fault)
      : rng_(rng), b_("rand" + std::to_string(index)), fault_(fault) {
    n_ = b_.scalar("n", Type::I64);
    s_ = b_.scalar("s", Type::F64);
    ia_ = b_.array("ia", Type::I64);
    fa_ = b_.array("fa", Type::F64);
    oi_ = b_.array("oi", Type::I64);
    of_ = b_.array("of", Type::F64);
  }

  KernelPtr build() {
    block(2, static_cast<int>(rng_.range(2, 6)));
    if (fault_ != Fault::None) injectFault();
    return b_.build();
  }

 private:
  ExprPtr index(const ExprPtr& e) { return ((e % n_) + n_) % n_; }

  ExprPtr builtin() {
    switch (rng_.range(0, 3)) {
      case 0: return b_.threadIdx(static_cast<Axis>(rng_.range(0, 2)));
      case 1: return b_.blockIdx(static_cast<Axis>(rng_.range(0, 2)));
      case 2: return b_.blockDim(static_cast<Axis>(rng_.range(0, 2)));
      default: return b_.gridDim(static_cast<Axis>(rng_.range(0, 2)));
    }
  }

  ExprPtr pick(const std::vector<ExprPtr>& ls) {
    return ls[static_cast<std::size_t>(rng_.range(0, static_cast<i64>(ls.size()) - 1))];
  }

  ExprPtr intExpr(int depth) {
    if (depth <= 0 || rng_.chance(0.3)) {
      switch (rng_.range(0, 4)) {
        case 0: return iconst(rng_.range(-9, 9));
        case 1: return n_;
        case 2: return builtin();
        case 3:
          if (!ints_.empty()) return pick(ints_);
          return iconst(rng_.range(0, 3));
        default: return b_.load(ia_, index(intExpr(depth - 1)));
      }
    }
    auto a = [&] { return intExpr(depth - 1); };
    switch (rng_.range(0, 13)) {
      case 0: return a() + a();
      case 1: return a() - a();
      case 2: return a() * iconst(rng_.range(-3, 3));
      case 3: return a() / Expr::binary(BinOp::Max, a(), iconst(1));
      case 4: return a() % Expr::binary(BinOp::Max, a(), iconst(1));
      case 5: return Expr::binary(rng_.chance(0.5) ? BinOp::Min : BinOp::Max, a(), a());
      case 6: {
        static const BinOp cmp[] = {BinOp::Eq, BinOp::Ne, BinOp::Lt,
                                    BinOp::Le, BinOp::Gt, BinOp::Ge};
        BinOp op = cmp[rng_.range(0, 5)];
        if (rng_.chance(0.5)) return Expr::binary(op, a(), a());
        return Expr::binary(op, floatExpr(depth - 1), floatExpr(depth - 1));
      }
      case 7: return Expr::binary(rng_.chance(0.5) ? BinOp::And : BinOp::Or, a(), a());
      case 8: return Expr::unary(rng_.chance(0.5) ? UnOp::Neg : UnOp::Not, a());
      case 9: return Expr::select(a(), a(), a());
      case 10:
        // NaN-safe clamp before the cast: Min/Max pick the bound on NaN.
        return Expr::cast(Type::I64,
                          Expr::binary(BinOp::Max,
                                       Expr::binary(BinOp::Min, floatExpr(depth - 1),
                                                    fconst(1e6)),
                                       fconst(-1e6)));
      default: return b_.load(ia_, index(a()));
    }
  }

  ExprPtr floatExpr(int depth) {
    if (depth <= 0 || rng_.chance(0.3)) {
      switch (rng_.range(0, 4)) {
        case 0: return fconst(static_cast<double>(rng_.range(-8, 8)) * 0.75);
        case 1: return s_;
        case 2:
          if (!floats_.empty()) return pick(floats_);
          return fconst(0.5);
        case 3: return Expr::cast(Type::F64, intExpr(depth - 1));
        default: return b_.load(fa_, index(intExpr(depth - 1)));
      }
    }
    auto f = [&] { return floatExpr(depth - 1); };
    switch (rng_.range(0, 8)) {
      case 0: return f() + f();
      case 1: return f() - f();
      case 2: return f() * f();
      case 3: return f() / f();
      case 4: return Expr::binary(rng_.chance(0.5) ? BinOp::Min : BinOp::Max, f(), f());
      case 5: return Expr::unary(UnOp::Neg, f());
      case 6: return Expr::select(intExpr(depth - 1), f(), f());
      case 7: {
        static const MathFn fns[] = {MathFn::Sqrt, MathFn::Rsqrt, MathFn::Exp,
                                     MathFn::Fabs};
        return Expr::math(fns[rng_.range(0, 3)], f());
      }
      default: return b_.load(fa_, index(intExpr(depth - 1)));
    }
  }

  std::string fresh() { return "v" + std::to_string(names_++); }

  void stmt(int depth) {
    const int kinds = depth > 0 ? 8 : 6;
    switch (rng_.range(0, kinds - 1)) {
      case 0: ints_.push_back(b_.let(fresh(), intExpr(2))); return;
      case 1: floats_.push_back(b_.let(fresh(), floatExpr(2))); return;
      case 2: {
        // Reassign a local (loop variables included).
        std::vector<ExprPtr>& ls = rng_.chance(0.5) ? ints_ : floats_;
        if (ls.empty()) return;
        const ExprPtr l = pick(ls);
        b_.assign(l, l->type() == Type::I64 ? intExpr(2) : floatExpr(2));
        return;
      }
      case 3: b_.store(oi_, index(intExpr(2)), intExpr(2)); return;
      case 4: b_.store(of_, index(intExpr(2)), floatExpr(2)); return;
      case 5:
        // Writes into an array the kernel also gathers through.
        b_.store(ia_, index(intExpr(2)), intExpr(1) % iconst(7));
        return;
      case 6: {
        ExprPtr lo = Expr::binary(BinOp::Max, intExpr(1), iconst(-1));
        ExprPtr hi = Expr::binary(BinOp::Min, intExpr(1), iconst(3));
        if (rng_.chance(0.5)) {
          // A bound held in a local the body may reassign: the loop must
          // still run to the value it had on entry.
          hi = b_.let(fresh(), hi);
          ints_.push_back(hi);
        }
        b_.forLoop(fresh(), lo, hi, [&](ExprPtr v) {
          // Reassigning the loop variable must not change the trip count.
          if (rng_.chance(0.3)) b_.assign(v, v + iconst(rng_.range(0, 3)));
          scoped(v, depth - 1);
        });
        return;
      }
      default: {
        ExprPtr c = intExpr(2);
        if (rng_.chance(0.5))
          b_.iff(c, [&] { scoped(nullptr, depth - 1); });
        else
          b_.iff(c, [&] { scoped(nullptr, depth - 1); },
                 [&] { scoped(nullptr, depth - 1); });
        return;
      }
    }
  }

  /// A nested block: its locals (and loop variable `var`) go out of scope
  /// at its end.
  void scoped(const ExprPtr& var, int depth) {
    const std::size_t ni = ints_.size(), nf = floats_.size();
    if (var) ints_.push_back(var);
    block(depth, static_cast<int>(rng_.range(1, 3)));
    ints_.resize(ni);
    floats_.resize(nf);
  }

  void block(int depth, int count) {
    for (int i = 0; i < count; ++i) stmt(depth);
  }

  void injectFault() {
    constexpr i64 kMax = std::numeric_limits<i64>::max();
    constexpr i64 kMin = std::numeric_limits<i64>::min();
    // Dynamic operands, so neither engine sees a constant: zero is n - n,
    // minus one is n - n - 1.
    ExprPtr zero = n_ - n_;
    ExprPtr one = Expr::binary(BinOp::Max, intExpr(1), iconst(1));
    auto body = [&] {
      switch (fault_) {
        case Fault::LoadOob:
          b_.let(fresh(), b_.load(ia_, n_ + Expr::binary(BinOp::Max, intExpr(1), iconst(0))));
          break;
        case Fault::StoreOob:
          b_.store(oi_, zero - one, intExpr(1));
          break;
        case Fault::DivZero: b_.let(fresh(), intExpr(1) / zero); break;
        case Fault::RemZero: b_.let(fresh(), intExpr(1) % zero); break;
        case Fault::AddOverflow: b_.let(fresh(), iconst(kMax) + one); break;
        case Fault::MulOverflow: b_.let(fresh(), iconst(kMax / 2) * (one + iconst(1))); break;
        case Fault::NegOverflow:
          b_.let(fresh(), Expr::unary(UnOp::Neg, iconst(kMin) + zero));
          break;
        case Fault::DivOverflow:
          b_.let(fresh(), (iconst(kMin) + zero) / (zero - iconst(1)));
          break;
        case Fault::CastNaN:
          b_.let(fresh(), Expr::cast(Type::I64, (s_ - s_) / (s_ - s_)));
          break;
        default: break;
      }
    };
    // Sometimes only some threads reach the fault.
    if (rng_.chance(0.5))
      b_.iff(lt(b_.threadIdx(Axis::X), iconst(rng_.range(0, 2))), body);
    else
      body();
  }

  Rng& rng_;
  KernelBuilder b_;
  Fault fault_;
  ExprPtr n_, s_;
  ArrayRef ia_, fa_, oi_, of_;
  std::vector<ExprPtr> ints_, floats_;
  int names_ = 0;
};

TEST(CompiledVsOracle, RandomProgramsIncludingInjectedFaults) {
  const int iters = fuzz::caseCount(1000);
  int completed = 0, sliced = 0;
  for (int iter = 0; iter < iters; ++iter) {
    fuzz::SeededRng rng(fuzz::seedFor(8282, iter));
    SCOPED_TRACE(rng.replay());
    const Fault fault = rng.chance(0.35)
                            ? static_cast<Fault>(rng.range(1, static_cast<i64>(Fault::kCount) - 1))
                            : Fault::None;
    KernelPtr k = ProgramGen(rng, iter, fault).build();
    SCOPED_TRACE(k->str());

    const i64 n = rng.range(3, 11);
    std::vector<i64> ia(static_cast<std::size_t>(n)), oi(ia.size(), -7);
    std::vector<double> fa(ia.size()), of(ia.size(), -7.5);
    for (i64& v : ia) v = rng.range(-6, 6);
    for (double& v : fa) v = rng.uniform() * 8 - 4;
    const std::vector<std::vector<i64>> buffers = {ia, bitsOf(fa), oi, bitsOf(of)};
    const std::vector<ArgValue> scalars = {ArgValue::ofInt(n),
                                           ArgValue::ofFloat(rng.uniform() * 3 - 1)};
    const LaunchConfig cfg{{rng.range(1, 3), rng.range(1, 2), rng.range(1, 2)},
                           {rng.range(1, 4), rng.range(1, 3), 1}};

    const Outcome want = runEngine(&oracle::execute, *k, cfg, scalars, buffers);
    const Outcome got = runEngine(&execute, *k, cfg, scalars, buffers);
    expectSameOutcome(got, want);
    if (fault == Fault::None) {
      EXPECT_EQ(want.error, "");
    }
    if (!want.error.empty()) continue;
    ++completed;

    // Each array's address slice observes the full program's reads of it,
    // in order, with only the arrays the slice touches passed as data.
    const Program full = Program::compile(*k);
    for (std::size_t arg : k->arrayParamIndices()) {
      const std::size_t observed[] = {arg};
      const Program walk = full.slice(observed);
      std::vector<std::vector<i64>> bufs = buffers;
      std::vector<ArgValue> args;
      std::size_t si = 0, bi = 0;
      for (std::size_t p = 0; p < k->numParams(); ++p) {
        if (!k->param(p).isArray) {
          args.push_back(scalars[si++]);
          continue;
        }
        std::vector<i64>& buf = bufs[bi++];
        args.push_back(ArgValue::ofBuffer(walk.accessesData(p) ? buf.data() : nullptr,
                                          static_cast<i64>(buf.size())));
      }
      std::vector<Access> reads;
      AccessObserver obs = [&](std::size_t a, bool isWrite, i64 flat,
                               std::span<const i64, 12> b) {
        if (a != arg || isWrite) return;
        Access x{a, false, flat, {}};
        std::copy(b.begin(), b.end(), x.builtins.begin());
        reads.push_back(x);
      };
      walk.run(cfg, args, obs);
      std::vector<Access> wantReads;
      for (const Access& x : want.accesses)
        if (x.arg == arg && !x.isWrite) wantReads.push_back(x);
      ASSERT_TRUE(reads == wantReads) << "slice for arg " << arg;
      sliced += walk.size() < full.size() ? 1 : 0;
    }
  }
  if (!fuzz::seedPinned()) {
    // The sweep must mostly run to completion, or it compares little.
    EXPECT_GT(completed, iters / 3);
    EXPECT_GT(sliced, completed);
  }
}

}  // namespace
}  // namespace polypart::ir
