// Additional analysis tests: 3-D grids, transposed writes, strategy
// heuristics, scalar parameter plumbing, grid-dimension uses, model-space
// conventions, and the model's disk format.

#include <gtest/gtest.h>

#include <functional>

#include "analysis/analyze.h"
#include "apps/kernels.h"
#include "ir/builder.h"
#include "ir/interp.h"

namespace polypart::analysis {
namespace {

using ir::Axis;
using ir::ExprPtr;
using ir::fconst;
using ir::iconst;
using ir::KernelBuilder;
using ir::KernelPtr;
using ir::land;
using ir::lt;
using ir::Type;

TEST(AnalysisMore, ThreeDimensionalGridKernel) {
  // 3-D volume update: out[z][y][x] = in[z][y][x] * 2.
  KernelBuilder b("vol");
  auto n = b.scalar("n", Type::I64);
  auto in = b.array("in", Type::F64, {n, n, n});
  auto out = b.array("out", Type::F64, {n, n, n});
  auto x = b.let("x", b.globalId(Axis::X));
  auto y = b.let("y", b.globalId(Axis::Y));
  auto z = b.let("z", b.globalId(Axis::Z));
  b.iff(land(land(lt(x, n), lt(y, n)), lt(z, n)), [&] {
    auto idx = b.let("idx", (z * n + y) * n + x);
    b.store(out, idx, b.load(in, idx) * fconst(2.0));
  });
  KernelPtr k = b.build();
  KernelModel m = analyzeKernel(*k);
  // Outermost written dimension follows z: the strategy must split z.
  EXPECT_EQ(m.strategy, PartitionStrategy::SplitZ);
  EXPECT_FALSE(m.requiresUnitGrid[0]);
  EXPECT_FALSE(m.requiresUnitGrid[1]);
  EXPECT_FALSE(m.requiresUnitGrid[2]);
  const ArrayModel* o = m.arrayFor(2);
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->rank(), 3u);
  EXPECT_TRUE(o->write.exact());
  // Block (0,0,1) with 2^3 blocks of 2^3 threads writes slab z in [2,4).
  std::vector<i64> params = {2, 2, 2, 2, 2, 2, /*n=*/4};
  std::vector<i64> ins = {0, 0, 2, 0, 0, 1};
  EXPECT_TRUE(o->write.contains(params, ins, std::vector<i64>{2, 1, 1}));
  EXPECT_FALSE(o->write.contains(params, ins, std::vector<i64>{1, 1, 1}));
}

TEST(AnalysisMore, TransposedWriteChoosesXSplit) {
  // out[x][y] = in[y][x]: the outermost written dim follows the x grid axis.
  KernelBuilder b("transpose");
  auto n = b.scalar("n", Type::I64);
  auto in = b.array("in", Type::F64, {n, n});
  auto out = b.array("out", Type::F64, {n, n});
  auto x = b.let("x", b.globalId(Axis::X));
  auto y = b.let("y", b.globalId(Axis::Y));
  b.iff(land(lt(x, n), lt(y, n)), [&] {
    b.store(out, x * n + y, b.load(in, y * n + x));
  });
  KernelModel m = analyzeKernel(*b.build());
  EXPECT_EQ(m.strategy, PartitionStrategy::SplitX);
  const ArrayModel* o = m.arrayFor(2);
  ASSERT_NE(o, nullptr);
  EXPECT_TRUE(o->write.exact());
}

TEST(AnalysisMore, ScalarOffsetsBecomeParameters) {
  // y[i + off] = x[i]: the scalar offset appears linearly in the maps.
  KernelBuilder b("shifted");
  auto n = b.scalar("n", Type::I64);
  auto off = b.scalar("off", Type::I64);
  auto x = b.array("x", Type::F64);
  auto y = b.array("y", Type::F64, {n});
  auto i = b.let("i", b.globalId(Axis::X));
  b.iff(lt(i + off, n), [&] { b.store(y, i + off, b.load(x, i)); });
  KernelModel m = analyzeKernel(*b.build());
  const ArrayModel* ym = m.arrayFor(3);
  ASSERT_NE(ym, nullptr);
  // params: [bd(3), gd(3), n, off]; block 0 of 8 threads with off=5 writes
  // [5, 13) clipped by n=10 -> [5, 10).
  std::vector<i64> params = {8, 1, 1, 1, 1, 1, 10, 5};
  std::vector<i64> ins = {0, 0, 0, 0, 0, 0};
  EXPECT_TRUE(ym->write.contains(params, ins, std::vector<i64>{5}));
  EXPECT_TRUE(ym->write.contains(params, ins, std::vector<i64>{9}));
  EXPECT_FALSE(ym->write.contains(params, ins, std::vector<i64>{4}));
  EXPECT_FALSE(ym->write.contains(params, ins, std::vector<i64>{10}));
}

TEST(AnalysisMore, GridStrideLoopIsRejected) {
  // Grid-stride loops make the access domain depend on gridDim*blockDim — a
  // non-affine product the model cannot express; the kernel must be
  // rejected rather than mis-modeled.
  KernelBuilder b("gridstride");
  auto n = b.scalar("n", Type::I64);
  auto x = b.array("x", Type::F64, {n});
  auto start = b.let("start", b.globalId(Axis::X));
  auto stride = b.let("stride", b.gridDim(Axis::X) * b.blockDim(Axis::X));
  b.forLoop("i", start, n, [&](ExprPtr i) {
    // NOTE: the IR for-loop has unit stride; emulate a strided loop through
    // the index expression i*stride + start is also non-affine.
    b.store(x, i * stride, fconst(1.0));
  });
  // Default: the non-affine product demotes the write to the may-access
  // tier; strict mode restores the reject.
  KernelPtr k = b.build();
  KernelModel m = analyzeKernel(*k);
  ASSERT_NE(m.arrayFor(1), nullptr);
  EXPECT_TRUE(m.arrayFor(1)->writeMayAccess);
  AnalysisOptions strict;
  strict.allowMayAccess = false;
  EXPECT_THROW(analyzeKernel(*k, strict), UnsupportedKernelError);
}

TEST(AnalysisMore, ReductionStyleWriteRejected) {
  // Block-wide "reduction" writing one cell per *block* is injective at the
  // block level but not at the thread level (every thread stores).
  KernelBuilder b("blocksum");
  auto n = b.scalar("n", Type::I64);
  auto x = b.array("x", Type::F64);
  auto partial = b.array("partial", Type::F64);
  auto i = b.let("i", b.globalId(Axis::X));
  b.iff(lt(i, n), [&] {
    b.store(partial, b.blockIdx(Axis::X), b.load(x, i));
  });
  EXPECT_THROW(analyzeKernel(*b.build()), UnsupportedKernelError);
}

TEST(AnalysisMore, PerThreadDistinctColumnsAccepted) {
  // out[tid.y][global x] from a 2-D block: distinct threads hit distinct
  // cells because tid.y contributes a distinct row.
  KernelBuilder b("rows2d");
  auto n = b.scalar("n", Type::I64);
  auto out = b.array("out", Type::F64, {n, n});
  auto x = b.let("x", b.globalId(Axis::X));
  auto y = b.let("y", b.globalId(Axis::Y));
  b.iff(land(lt(x, n), lt(y, n)), [&] {
    b.store(out, y * n + x, fconst(1.0));
  });
  KernelModel m = analyzeKernel(*b.build());
  EXPECT_TRUE(m.arrayFor(1)->write.exact());
  EXPECT_EQ(m.strategy, PartitionStrategy::SplitY);
}

TEST(AnalysisMore, ModelParamSpaceConvention) {
  KernelPtr k = apps::buildHotspot();
  pset::Space s = modelParamSpace(*k);
  ASSERT_GE(s.numParams(), kFixedParams);
  EXPECT_EQ(s.paramNames()[0], "bdx");
  EXPECT_EQ(s.paramNames()[5], "gdz");
  EXPECT_EQ(s.paramNames()[6], "n");  // hotspot's only i64 scalar
  // f64 scalars (k, dt) are not model parameters.
  EXPECT_EQ(s.numParams(), kFixedParams + 1);
}

TEST(AnalysisMore, MultipleWritersSameArray) {
  // Two stores to disjoint halves of one array in one kernel: union write
  // map, still injective.
  KernelBuilder b("twohalves");
  auto n = b.scalar("n", Type::I64);
  auto out = b.array("out", Type::F64);
  auto i = b.let("i", b.globalId(Axis::X));
  b.iff(lt(i, n), [&] {
    b.store(out, i * iconst(2), fconst(1.0));      // even slots...
    b.store(out, i * iconst(2) + iconst(1), fconst(2.0));  // ...and odd slots
  });
  // Each store alone is strided (inexact under projection); the kernel must
  // be rejected unless the programmer annotates the union, which is the
  // contiguous 2*box <= a0 < 2*(box + bdx), a0 < 2n.
  KernelPtr k = b.build();
  EXPECT_THROW(analyzeKernel(*k), UnsupportedKernelError);

  pset::Space space = accessMapSpace(modelParamSpace(*k), 1);
  pset::LinExpr a0 = pset::LinExpr::dim(space, pset::DimId::out(0));
  pset::LinExpr box = pset::LinExpr::dim(space, pset::DimId::in(0));
  pset::LinExpr bdx = pset::LinExpr::dim(space, pset::DimId::param(0));
  pset::LinExpr nn = pset::LinExpr::dim(space, pset::DimId::param(6));
  pset::LinExpr one = pset::LinExpr::constant(space, 1);
  pset::BasicSet bs(space);
  bs.addGe(a0);
  bs.addGe(a0 - box * 2);
  bs.addGe(box * 2 + bdx * 2 - a0 - one);
  bs.addGe(nn * 2 - a0 - one);
  pset::Map evenOdd(space);
  evenOdd.addPart(std::move(bs));
  KernelAnnotations ann;
  ann.annotateWrite(1, evenOdd);
  AnalysisOptions opts;
  opts.annotations = &ann;
  KernelModel m = analyzeKernel(*k, opts);
  ASSERT_NE(m.arrayFor(1), nullptr);
  EXPECT_TRUE(m.arrayFor(1)->hasWrites());
  EXPECT_FALSE(m.arrayFor(1)->writeMayAccess);
}

TEST(AnalysisMore, BenchmarkModelsRoundTripThroughDiskFormat) {
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel app = analyzeModule(mod);
  for (const KernelModel& km : app.kernels) {
    KernelModel re = KernelModel::fromJson(json::Value::parse(km.toJson().dump()));
    EXPECT_EQ(re.kernel, km.kernel);
    EXPECT_EQ(re.strategy, km.strategy);
    EXPECT_EQ(re.arrays.size(), km.arrays.size());
    for (std::size_t i = 0; i < km.arrays.size(); ++i) {
      EXPECT_EQ(re.arrays[i].read.str(), km.arrays[i].read.str());
      EXPECT_EQ(re.arrays[i].write.str(), km.arrays[i].write.str());
      EXPECT_EQ(re.arrays[i].shape.size(), km.arrays[i].shape.size());
    }
  }
}

TEST(AnalysisMore, ModelFormatRejectsUnknownAndRetiredValues) {
  // Model files are outside input (pass 2 loads them from disk): unknown
  // enum strings and retired tiers must fail to load, naming what is wrong.
  const std::string good = analyzeKernel(*apps::buildSaxpy()).toJson().dump();
  auto load = [&](const std::function<void(json::Value&)>& edit) {
    json::Value v = json::Value::parse(good);
    edit(v);
    return KernelModel::fromJson(v);
  };
  auto message = [&](const std::function<void(json::Value&)>& edit) {
    try {
      load(edit);
    } catch (const ModelFormatError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  auto contains = [](const std::string& s, const std::string& part) {
    return s.find(part) != std::string::npos;
  };

  // Files written before the instrumented-write tier was retired carry
  // "write_instrumented"; `false` loads like the key's absence.
  const KernelModel current = load([](json::Value&) {});
  const KernelModel legacy = load([](json::Value& v) {
    for (json::Value& a : v["arrays"].asArray()) a["write_instrumented"] = false;
  });
  ASSERT_EQ(legacy.arrays.size(), current.arrays.size());
  for (std::size_t i = 0; i < current.arrays.size(); ++i) {
    EXPECT_EQ(legacy.arrays[i].write.str(), current.arrays[i].write.str());
    EXPECT_EQ(legacy.arrays[i].read.str(), current.arrays[i].read.str());
  }

  const std::string retired = message([](json::Value& v) {
    v["arrays"].asArray()[0]["write_instrumented"] = true;
  });
  EXPECT_TRUE(contains(retired, "'saxpy'")) << retired;
  EXPECT_TRUE(contains(retired, "'" + current.arrays[0].name + "'")) << retired;

  const std::string kind =
      message([](json::Value& v) { v["params"].asArray()[2]["kind"] = "arrya"; });
  EXPECT_TRUE(contains(kind, "\"kind\"") && contains(kind, "\"arrya\"")) << kind;
  const std::string type =
      message([](json::Value& v) { v["params"].asArray()[0]["type"] = "i32"; });
  EXPECT_TRUE(contains(type, "\"type\"") && contains(type, "\"i32\"")) << type;
  const std::string elem =
      message([](json::Value& v) { v["arrays"].asArray()[0]["elem"] = "f32"; });
  EXPECT_TRUE(contains(elem, "\"elem\"") && contains(elem, "\"f32\"")) << elem;
}

}  // namespace
}  // namespace polypart::analysis
