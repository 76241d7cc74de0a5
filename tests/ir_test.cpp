// Unit tests for the kernel IR: builder, verifier, compiled execution (with
// the tree-walking oracle held to the same rules), cost model, and the
// partitioning transformation (paper Section 7).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "apps/kernels.h"
#include "ir/builder.h"
#include "ir/cost.h"
#include "ir/interp.h"
#include "ir/transform.h"
#include "ir/verify.h"
#include "ir_oracle.h"

namespace polypart::ir {
namespace {

KernelPtr makeSaxpy() {
  KernelBuilder b("saxpy");
  auto n = b.scalar("n", Type::I64);
  auto a = b.scalar("a", Type::F64);
  auto x = b.array("x", Type::F64);
  auto y = b.array("y", Type::F64);
  auto i = b.let("i", b.globalId(Axis::X));
  b.iff(lt(i, n), [&] { b.store(y, i, a * b.load(x, i) + b.load(y, i)); });
  return b.build();
}

TEST(IrBuilder, SaxpyStructure) {
  KernelPtr k = makeSaxpy();
  EXPECT_EQ(k->name(), "saxpy");
  EXPECT_EQ(k->numParams(), 4u);
  EXPECT_EQ(k->arrayParamIndices(), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(k->scalarParamIndices(), (std::vector<std::size_t>{0, 1}));
  std::string src = k->str();
  EXPECT_NE(src.find("__global__ void saxpy"), std::string::npos);
  EXPECT_NE(src.find("threadIdx.x"), std::string::npos);
}

TEST(IrInterp, SaxpyComputesCorrectly) {
  KernelPtr k = makeSaxpy();
  const i64 n = 1000;
  std::vector<double> x(n), y(n), expect(n);
  for (i64 i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = static_cast<double>(i);
    y[static_cast<std::size_t>(i)] = 2.0 * static_cast<double>(i);
    expect[static_cast<std::size_t>(i)] = 3.0 * static_cast<double>(i) +
                                          2.0 * static_cast<double>(i);
  }
  ArgValue args[] = {
      ArgValue::ofInt(n), ArgValue::ofFloat(3.0),
      ArgValue::ofBuffer(x.data(), n), ArgValue::ofBuffer(y.data(), n)};
  // Grid overhang: 4 blocks of 256 threads cover 1024 > 1000 threads.
  execute(*k, LaunchConfig{{4, 1, 1}, {256, 1, 1}}, args);
  EXPECT_EQ(y, expect);
}

TEST(IrInterp, OutOfBoundsThrows) {
  KernelBuilder b("oob");
  auto x = b.array("x", Type::F64);
  b.store(x, b.globalId(Axis::X) + iconst(100), fconst(1.0));
  KernelPtr k = b.build();
  std::vector<double> buf(10);
  ArgValue args[] = {ArgValue::ofBuffer(buf.data(), 10)};
  EXPECT_THROW(execute(*k, LaunchConfig{{1, 1, 1}, {1, 1, 1}}, args), Error);
}

TEST(IrInterp, SequentialLoopAndAccumulator) {
  // sum[i] = sum of m[i*cols .. i*cols+cols)
  KernelBuilder b("rowsum");
  auto cols = b.scalar("cols", Type::I64);
  auto m = b.array("m", Type::F64);
  auto sum = b.array("sum", Type::F64);
  auto i = b.let("i", b.globalId(Axis::X));
  auto acc = b.let("acc", fconst(0.0));
  b.forLoop("j", iconst(0), cols, [&](ExprPtr j) {
    b.assign(acc, acc + b.load(m, i * cols + j));
  });
  b.store(sum, i, acc);
  KernelPtr k = b.build();

  const i64 rows = 8, ncols = 5;
  std::vector<double> mat(static_cast<std::size_t>(rows * ncols));
  std::iota(mat.begin(), mat.end(), 0.0);
  std::vector<double> out(static_cast<std::size_t>(rows), -1.0);
  ArgValue args[] = {ArgValue::ofInt(ncols), ArgValue::ofBuffer(mat.data(), rows * ncols),
                     ArgValue::ofBuffer(out.data(), rows)};
  execute(*k, LaunchConfig{{2, 1, 1}, {4, 1, 1}}, args);
  for (i64 r = 0; r < rows; ++r) {
    double want = 0;
    for (i64 c = 0; c < ncols; ++c) want += static_cast<double>(r * ncols + c);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)], want);
  }
}

// -- checked integer semantics and the evaluation-order contract ------------
// Each rule runs on the compiled engine and on the tree-walking oracle.

using Engine = void (*)(const Kernel&, const LaunchConfig&,
                        std::span<const ArgValue>, const AccessObserver&);

const std::pair<const char*, Engine> kEngines[] = {
    {"compiled", &execute}, {"oracle", &oracle::execute}};

/// `out[0] = f(a, b)` over two i64 scalars, on one thread.
KernelPtr scalarKernel(const std::string& name, Type t,
                       const std::function<ExprPtr(ExprPtr, ExprPtr)>& f) {
  KernelBuilder b(name);
  auto a = b.scalar("a", t);
  auto c = b.scalar("b", t);
  auto out = b.array("out", Type::I64);
  b.store(out, iconst(0), f(a, c));
  return b.build();
}

/// Runs `k` on one thread and returns what it threw as "<type>: <message>"
/// ("" when nothing).
std::string fault(Engine run, const Kernel& k, ArgValue a, ArgValue b) {
  std::vector<i64> out(1);
  std::vector<ArgValue> args = {a, b, ArgValue::ofBuffer(out.data(), 1)};
  try {
    run(k, LaunchConfig{{1, 1, 1}, {1, 1, 1}}, args, nullptr);
  } catch (const OverflowError& e) {
    return std::string("OverflowError: ") + e.what();
  } catch (const Error& e) {
    return std::string("Error: ") + e.what();
  }
  return "";
}

TEST(IrInterp, IntegerOverflowThrowsOverflowError) {
  const i64 big = std::numeric_limits<i64>::max();
  const i64 small = std::numeric_limits<i64>::min();
  KernelPtr add = scalarKernel("add", Type::I64, [](ExprPtr a, ExprPtr b) { return a + b; });
  KernelPtr sub = scalarKernel("sub", Type::I64, [](ExprPtr a, ExprPtr b) { return a - b; });
  KernelPtr mul = scalarKernel("mul", Type::I64, [](ExprPtr a, ExprPtr b) { return a * b; });
  KernelPtr neg = scalarKernel("neg", Type::I64, [](ExprPtr a, ExprPtr) {
    return Expr::unary(UnOp::Neg, a);
  });
  for (auto [name, run] : kEngines) {
    SCOPED_TRACE(name);
    EXPECT_EQ(fault(run, *add, ArgValue::ofInt(big), ArgValue::ofInt(1)),
              "OverflowError: add overflow");
    EXPECT_EQ(fault(run, *sub, ArgValue::ofInt(small), ArgValue::ofInt(1)),
              "OverflowError: sub overflow");
    EXPECT_EQ(fault(run, *mul, ArgValue::ofInt(big), ArgValue::ofInt(2)),
              "OverflowError: mul overflow");
    EXPECT_EQ(fault(run, *neg, ArgValue::ofInt(small), ArgValue::ofInt(0)),
              "OverflowError: sub overflow");
    // In range: nothing thrown.
    EXPECT_EQ(fault(run, *add, ArgValue::ofInt(big - 1), ArgValue::ofInt(1)), "");
    EXPECT_EQ(fault(run, *neg, ArgValue::ofInt(small + 1), ArgValue::ofInt(0)), "");
  }
}

TEST(IrInterp, IntegerDivisionByZeroNamesTheKernel) {
  KernelPtr div = scalarKernel("divk", Type::I64, [](ExprPtr a, ExprPtr b) { return a / b; });
  KernelPtr rem = scalarKernel("remk", Type::I64, [](ExprPtr a, ExprPtr b) { return a % b; });
  for (auto [name, run] : kEngines) {
    SCOPED_TRACE(name);
    EXPECT_EQ(fault(run, *div, ArgValue::ofInt(7), ArgValue::ofInt(0)),
              "Error: integer division by zero in kernel 'divk'");
    EXPECT_EQ(fault(run, *rem, ArgValue::ofInt(7), ArgValue::ofInt(0)),
              "Error: integer remainder by zero in kernel 'remk'");
  }
}

TEST(IrInterp, MinInt64DividedByMinusOneThrows) {
  const i64 small = std::numeric_limits<i64>::min();
  KernelPtr div = scalarKernel("divk", Type::I64, [](ExprPtr a, ExprPtr b) { return a / b; });
  KernelPtr rem = scalarKernel("remk", Type::I64, [](ExprPtr a, ExprPtr b) { return a % b; });
  for (auto [name, run] : kEngines) {
    SCOPED_TRACE(name);
    EXPECT_EQ(fault(run, *div, ArgValue::ofInt(small), ArgValue::ofInt(-1)),
              "OverflowError: integer division overflow in kernel 'divk'");
    EXPECT_EQ(fault(run, *rem, ArgValue::ofInt(small), ArgValue::ofInt(-1)),
              "OverflowError: integer remainder overflow in kernel 'remk'");
    EXPECT_EQ(fault(run, *div, ArgValue::ofInt(small), ArgValue::ofInt(1)), "");
  }
}

TEST(IrInterp, NaNOrOutOfRangeCastThrows) {
  KernelPtr cast = scalarKernel("castk", Type::F64, [](ExprPtr a, ExprPtr) {
    return Expr::cast(Type::I64, a);
  });
  auto castOf = [&](Engine run, double x) {
    return fault(run, *cast, ArgValue::ofFloat(x), ArgValue::ofFloat(0));
  };
  for (auto [name, run] : kEngines) {
    SCOPED_TRACE(name);
    EXPECT_EQ(castOf(run, std::nan("")), "Error: f64-to-i64 cast of nan out of range in kernel 'castk'");
    EXPECT_EQ(castOf(run, 0x1p63), "Error: f64-to-i64 cast of 9.22337e+18 out of range in kernel 'castk'");
    EXPECT_EQ(castOf(run, -1e19), "Error: f64-to-i64 cast of -1e+19 out of range in kernel 'castk'");
    EXPECT_EQ(castOf(run, std::numeric_limits<double>::infinity()),
              "Error: f64-to-i64 cast of inf out of range in kernel 'castk'");
    // The edges of the range truncate.
    EXPECT_EQ(castOf(run, -0x1p63), "");
    EXPECT_EQ(castOf(run, -2.75), "");
  }
}

TEST(IrInterp, EvaluationOrderContract) {
  // One thread, one observer log per engine:
  //   let h = 3;
  //   for (j = 0; j < h; ++j) { h = 1; j = 10 + j; log[j - 10] = x[j - 10] }
  //     -> hi and the trip count are fixed when the loop starts (3 trips);
  //   log[5] = (x[4] && x[1]) ? x[99] : 1
  //     -> both And operands load although x[4] is 0; only the chosen arm
  //        runs (x[99] would be out of bounds);
  //   log[x[2] + 4] = x[3]
  //     -> the store index loads, then the store is observed, then its value.
  KernelBuilder b("order");
  auto x = b.array("x", Type::I64);
  auto log = b.array("log", Type::I64);
  auto h = b.let("h", iconst(3));
  b.forLoop("j", iconst(0), h, [&](ExprPtr j) {
    b.assign(h, iconst(1));
    b.assign(j, iconst(10) + j);
    b.store(log, j - iconst(10), b.load(x, j - iconst(10)));
  });
  b.store(log, iconst(5),
          Expr::select(land(b.load(x, iconst(4)), b.load(x, iconst(1))),
                       b.load(x, iconst(99)), iconst(1)));
  b.store(log, b.load(x, iconst(2)) + iconst(4), b.load(x, iconst(3)));
  KernelPtr k = b.build();

  for (auto [name, run] : kEngines) {
    SCOPED_TRACE(name);
    std::vector<i64> xs = {1, 1, 2, 40, 0, 0}, out(8, -1);
    std::vector<std::pair<std::size_t, i64>> seen;  // (arg, index); writes negated
    AccessObserver obs = [&](std::size_t arg, bool isWrite, i64 flat,
                             std::span<const i64, 12>) {
      seen.emplace_back(arg, isWrite ? -1 - flat : flat);
    };
    std::vector<ArgValue> args = {ArgValue::ofBuffer(xs.data(), 6),
                                  ArgValue::ofBuffer(out.data(), 8)};
    run(*k, LaunchConfig{{1, 1, 1}, {1, 1, 1}}, args, obs);
    const std::vector<std::pair<std::size_t, i64>> want = {
        {1, -1}, {0, 0}, {1, -2}, {0, 1}, {1, -3}, {0, 2},  // loop: log[j], x[j]
        {1, -6}, {0, 4}, {0, 1},                            // store, both operands
        {0, 2}, {1, -7}, {0, 3}};                           // index, store, value
    EXPECT_EQ(seen, want);
    EXPECT_EQ(out, (std::vector<i64>{1, 1, 2, -1, -1, 1, 40, -1}));
  }
}

TEST(IrProgram, SpmvSliceLoadsOnlyTheAddressArrays) {
  // spmv(nrows, ncols, nnz, row_ptr, col_idx, vals, x, y): the slice for x
  // keeps the row bounds and the column gather and drops vals, the
  // accumulation and the store to y.
  KernelPtr k = apps::buildCsrSpmv();
  const Program full = Program::compile(*k);
  const std::size_t observed[] = {6};
  const Program walk = full.slice(observed);
  for (std::size_t arg : {3, 4, 5, 6, 7}) EXPECT_TRUE(full.accessesData(arg)) << arg;
  EXPECT_TRUE(walk.accessesData(3));   // row_ptr: loop bounds
  EXPECT_TRUE(walk.accessesData(4));   // col_idx: x's index
  EXPECT_FALSE(walk.accessesData(5));  // vals: dead value arithmetic
  EXPECT_FALSE(walk.accessesData(6));  // x: observed and bounds-checked only
  EXPECT_FALSE(walk.accessesData(7));  // y: write-only output
  EXPECT_LT(walk.size(), full.size());

  // Same reads of x, with vals, x and y passed as extents alone.
  std::vector<i64> rowPtr = {0, 2, 2, 5}, colIdx = {1, 0, 2, 2, 1};
  std::vector<double> vals(5, 1.0), xv(3, 2.0), y(3);
  auto args = [&](bool sliced) {
    auto arr = [&](void* p, i64 n, bool data) {
      return ArgValue::ofBuffer(data ? p : nullptr, n);
    };
    return std::vector<ArgValue>{
        ArgValue::ofInt(3), ArgValue::ofInt(3), ArgValue::ofInt(5),
        arr(rowPtr.data(), 4, true), arr(colIdx.data(), 5, true),
        arr(vals.data(), 5, !sliced), arr(xv.data(), 3, !sliced),
        arr(y.data(), 3, !sliced)};
  };
  auto reads = [&](const Program& p, bool sliced) {
    std::vector<i64> got;
    AccessObserver obs = [&](std::size_t arg, bool isWrite, i64 flat,
                             std::span<const i64, 12>) {
      if (arg == 6 && !isWrite) got.push_back(flat);
    };
    std::vector<ArgValue> a = args(sliced);
    p.run(LaunchConfig{{1, 1, 1}, {4, 1, 1}}, a, obs);
    return got;
  };
  EXPECT_EQ(reads(walk, true), (std::vector<i64>{1, 0, 2, 2, 1}));
  EXPECT_EQ(reads(full, false), reads(walk, true));
}

TEST(IrProgram, CompileRejectsIllTypedBodiesWithTheKernelName) {
  // The builder verifies; a hand-built body that uses a local out of scope
  // reaches the compiler, which names the kernel instead of aborting.
  std::vector<Param> params = {Param{"x", true, Type::I64, {}}};
  StmtPtr body = Stmt::block(
      {Stmt::ifThen(iconst(1), Stmt::let("t", iconst(4))),
       Stmt::store(0, Expr::local("t", Type::I64), iconst(0))});
  Kernel k("scoped", params, body);
  try {
    Program::compile(k);
    ADD_FAILURE() << "compile accepted a local used outside its scope";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "kernel 'scoped': use of undefined local 't'");
  }
}

TEST(IrVerify, RejectsUndefinedLocal) {
  KernelBuilder b("bad");
  auto x = b.array("x", Type::F64);
  b.store(x, Expr::local("ghost", Type::I64), fconst(0.0));
  EXPECT_THROW(b.build(), Error);
}

TEST(IrVerify, RejectsTypeMismatchedStore) {
  KernelBuilder b("bad2");
  auto x = b.array("x", Type::F64);
  b.store(x, iconst(0), iconst(1));  // storing i64 into f64 array
  EXPECT_THROW(b.build(), Error);
}

TEST(IrVerify, RejectsDuplicateParams) {
  KernelBuilder b("bad3");
  b.scalar("n", Type::I64);
  auto x = b.array("n", Type::F64);
  b.store(x, iconst(0), fconst(0.0));
  EXPECT_THROW(b.build(), Error);
}

TEST(IrTransform, PartitionAppendsParamsAndRewrites) {
  KernelPtr k = makeSaxpy();
  KernelPtr p = partitionKernel(*k);
  EXPECT_EQ(p->name(), "saxpy__part");
  ASSERT_EQ(p->numParams(), 10u);
  EXPECT_EQ(p->param(4).name, "__part_min_x");
  EXPECT_EQ(p->param(9).name, "__part_max_z");
  std::string src = p->str();
  // blockIdx.x must now appear offset by the partition minimum.
  EXPECT_NE(src.find("arg4 + blockIdx.x"), std::string::npos);
}

TEST(IrTransform, PartitionedHalvesEqualWhole) {
  KernelPtr k = makeSaxpy();
  KernelPtr part = partitionKernel(*k);
  const i64 n = 2048;
  auto runFull = [&] {
    std::vector<double> x(n), y(n);
    for (i64 i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = static_cast<double>(i) * 0.5;
      y[static_cast<std::size_t>(i)] = static_cast<double>(i);
    }
    ArgValue args[] = {ArgValue::ofInt(n), ArgValue::ofFloat(1.5),
                       ArgValue::ofBuffer(x.data(), n), ArgValue::ofBuffer(y.data(), n)};
    execute(*k, LaunchConfig{{8, 1, 1}, {256, 1, 1}}, args);
    return y;
  };
  auto runParts = [&] {
    std::vector<double> x(n), y(n);
    for (i64 i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = static_cast<double>(i) * 0.5;
      y[static_cast<std::size_t>(i)] = static_cast<double>(i);
    }
    // Two partitions of the 8-block grid: [0,3) and [3,8).
    for (auto [lo, hi] : {std::pair<i64, i64>{0, 3}, {3, 8}}) {
      ArgValue args[] = {ArgValue::ofInt(n), ArgValue::ofFloat(1.5),
                         ArgValue::ofBuffer(x.data(), n), ArgValue::ofBuffer(y.data(), n),
                         // min x,y,z then max x,y,z (Eq. 10 grid config).
                         ArgValue::ofInt(lo), ArgValue::ofInt(0), ArgValue::ofInt(0),
                         ArgValue::ofInt(8), ArgValue::ofInt(1), ArgValue::ofInt(1)};
      execute(*part, LaunchConfig{{hi - lo, 1, 1}, {256, 1, 1}}, args);
    }
    return y;
  };
  EXPECT_EQ(runFull(), runParts());
}

TEST(IrCost, SaxpyCounts) {
  KernelPtr k = makeSaxpy();
  ArgValue args[] = {ArgValue::ofInt(1 << 20), ArgValue::ofFloat(2.0),
                     ArgValue::ofBuffer(reinterpret_cast<void*>(8), 1 << 20),
                     ArgValue::ofBuffer(reinterpret_cast<void*>(8), 1 << 20)};
  ThreadCost c = estimateThreadCost(*k, LaunchConfig{{4096, 1, 1}, {256, 1, 1}}, args);
  EXPECT_DOUBLE_EQ(c.loads, 2);
  EXPECT_DOUBLE_EQ(c.stores, 1);
  EXPECT_DOUBLE_EQ(c.flops, 2);  // one multiply, one add
}

TEST(IrCost, LoopTripCountsScaleCost) {
  KernelBuilder b("loopy");
  auto n = b.scalar("n", Type::I64);
  auto x = b.array("x", Type::F64);
  auto acc = b.let("acc", fconst(0.0));
  b.forLoop("j", iconst(0), n, [&](ExprPtr j) {
    b.assign(acc, acc + b.load(x, j));
  });
  b.store(x, iconst(0), acc);
  KernelPtr k = b.build();
  ArgValue args[] = {ArgValue::ofInt(100),
                     ArgValue::ofBuffer(reinterpret_cast<void*>(8), 100)};
  ThreadCost c = estimateThreadCost(*k, LaunchConfig{{1, 1, 1}, {1, 1, 1}}, args);
  EXPECT_DOUBLE_EQ(c.loads, 100);
  EXPECT_DOUBLE_EQ(c.flops, 100);
}

}  // namespace
}  // namespace polypart::ir
