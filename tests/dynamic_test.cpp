// Tests for the fallbacks the paper's conclusion proposes: the may-access
// tier, whose writes the runtime collects by instrumented execution, and
// programmer annotations of access maps.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "analysis/analyze.h"
#include "apps/kernels.h"
#include "ir/builder.h"
#include "rt/runtime.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/trace.h"

namespace polypart::rt {
namespace {

using analysis::AnalysisOptions;
using analysis::ApplicationModel;
using ir::ArrayRef;
using ir::Axis;
using ir::ExprPtr;
using ir::fconst;
using ir::iconst;
using ir::KernelBuilder;
using ir::KernelPtr;
using ir::lt;
using ir::Type;

/// Scatter kernel: out[idx[i]] = in[i].  The write index is a load — far
/// outside the polyhedral model.
KernelPtr buildScatter() {
  KernelBuilder b("scatter");
  auto n = b.scalar("n", Type::I64);
  auto idx = b.array("idx", Type::I64, {n});
  auto in = b.array("in", Type::F64, {n});
  auto out = b.array("out", Type::F64, {n});
  auto i = b.let("i", b.globalId(Axis::X));
  b.iff(lt(i, n), [&] { b.store(out, b.load(idx, i), b.load(in, i)); });
  return b.build();
}

/// Gather kernel: out[i] = in[idx[i]].  Non-affine *read*.
KernelPtr buildGather() {
  KernelBuilder b("gather");
  auto n = b.scalar("n", Type::I64);
  auto idx = b.array("idx", Type::I64, {n});
  auto in = b.array("in", Type::F64, {n});
  auto out = b.array("out", Type::F64, {n});
  auto i = b.let("i", b.globalId(Axis::X));
  b.iff(lt(i, n), [&] { b.store(out, i, b.load(in, b.load(idx, i))); });
  return b.build();
}

std::unique_ptr<Runtime> makeRuntime(const ir::Module& mod,
                                     const ApplicationModel& model, int gpus) {
  RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::Functional;
  return std::make_unique<Runtime>(cfg, model, mod);
}

TEST(Dynamic, ScatterDemotesToMayWriteByDefault) {
  // The default tier ladder ends in may-access: the indirect write demotes
  // instead of rejecting the kernel.  allowMayAccess = false restores the
  // paper's hard reject.
  KernelPtr k = buildScatter();
  analysis::KernelModel m = analysis::analyzeKernel(*k);
  const analysis::ArrayModel* out = m.arrayFor(3);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->writeMayAccess);
  EXPECT_FALSE(out->hasWrites());
  EXPECT_NE(out->mayAccessWhy.find("out"), std::string::npos)
      << out->mayAccessWhy;

  AnalysisOptions strict;
  strict.allowMayAccess = false;
  EXPECT_THROW(analysis::analyzeKernel(*k, strict), UnsupportedKernelError);
}

TEST(Dynamic, ModelRoundTripsMayAccessFlags) {
  // Pass 1 writes the model to disk and pass 2 reads it back: the tier
  // flags, their diagnostic and the whole-extent read map must survive.
  auto roundTrip = [](const KernelPtr& k) {
    analysis::KernelModel m = analysis::analyzeKernel(*k);
    analysis::KernelModel re = analysis::KernelModel::fromJson(
        json::Value::parse(m.toJson().dump()));
    EXPECT_EQ(re.arrays.size(), m.arrays.size()) << k->name();
    for (std::size_t i = 0; i < std::min(m.arrays.size(), re.arrays.size()); ++i) {
      const analysis::ArrayModel& a = m.arrays[i];
      const analysis::ArrayModel& b = re.arrays[i];
      EXPECT_EQ(b.readMayAccess, a.readMayAccess) << k->name() << " " << a.name;
      EXPECT_EQ(b.writeMayAccess, a.writeMayAccess) << k->name() << " " << a.name;
      EXPECT_EQ(b.mayAccessWhy, a.mayAccessWhy) << k->name() << " " << a.name;
      EXPECT_EQ(b.read.str(), a.read.str()) << k->name() << " " << a.name;
      EXPECT_EQ(b.write.str(), a.write.str()) << k->name() << " " << a.name;
    }
    return re;
  };
  analysis::KernelModel scatter = roundTrip(buildScatter());
  EXPECT_TRUE(scatter.arrayFor(3)->writeMayAccess);
  EXPECT_FALSE(scatter.arrayFor(3)->mayAccessWhy.empty());
  analysis::KernelModel gather = roundTrip(buildGather());
  EXPECT_TRUE(gather.arrayFor(2)->readMayAccess);
  EXPECT_FALSE(gather.arrayFor(2)->read.exact());
  EXPECT_FALSE(gather.arrayFor(2)->mayAccessWhy.empty());
}

TEST(Dynamic, ScatterExecutesCorrectlyOnMayAccessTier) {
  KernelPtr k = buildScatter();
  ir::Module mod;
  mod.addKernel(k);
  ApplicationModel model = analysis::analyzeModule(mod);
  ASSERT_TRUE(model.kernels[0].arrayFor(3)->writeMayAccess);

  const i64 n = 512;
  Rng rng(17);
  // A random permutation keeps writes injective across partitions.
  std::vector<i64> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (i64 i = n - 1; i > 0; --i)
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(rng.range(0, i))]);
  std::vector<double> in(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = 100.0 + static_cast<double>(i);

  for (int gpus : {1, 3, 8}) {
    auto rt = makeRuntime(mod, model, gpus);
    VirtualBuffer* dIdx = rt->malloc(n * 8);
    VirtualBuffer* dIn = rt->malloc(n * 8);
    VirtualBuffer* dOut = rt->malloc(n * 8);
    rt->memcpy(dIdx, perm.data(), n * 8, MemcpyKind::HostToDevice);
    rt->memcpy(dIn, in.data(), n * 8, MemcpyKind::HostToDevice);
    LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofBuffer(dIdx),
                        LaunchArg::ofBuffer(dIn), LaunchArg::ofBuffer(dOut)};
    rt->launch("scatter", {n / 64, 1, 1}, {64, 1, 1}, args);
    std::vector<double> out(static_cast<std::size_t>(n), -1.0);
    rt->memcpy(out.data(), dOut, n * 8, MemcpyKind::DeviceToHost);
    for (i64 i = 0; i < n; ++i)
      EXPECT_EQ(out[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])],
                in[static_cast<std::size_t>(i)])
          << gpus << " GPUs, element " << i;
    rt->free(dIdx);
    rt->free(dIn);
    rt->free(dOut);
  }
}

TEST(Dynamic, OverlappingMayWritesAreLastWriteWins) {
  // Many threads scatter into the same elements, across partitions.  The
  // runtime folds the observed writes in ascending device order, so each
  // element ends up with its highest-index writer's value, as in a
  // sequential run.
  KernelPtr k = buildScatter();
  ir::Module mod;
  mod.addKernel(k);
  ApplicationModel model = analysis::analyzeModule(mod);

  const i64 n = 512;
  std::vector<double> in(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = 100.0 + static_cast<double>(i);
  Rng rng(23);
  std::vector<i64> manyToOne(static_cast<std::size_t>(n));
  for (auto& v : manyToOne) v = rng.range(0, n / 8 - 1);  // ~8 writers each
  std::vector<i64> allZero(static_cast<std::size_t>(n), 0);

  for (std::vector<i64>* idx : {&allZero, &manyToOne}) {
    std::vector<double> expect(static_cast<std::size_t>(n), -1.0);
    for (i64 i = 0; i < n; ++i)
      expect[static_cast<std::size_t>((*idx)[static_cast<std::size_t>(i)])] =
          in[static_cast<std::size_t>(i)];
    for (int gpus : {1, 3, 8}) {
      auto rt = makeRuntime(mod, model, gpus);
      VirtualBuffer* dIdx = rt->malloc(n * 8);
      VirtualBuffer* dIn = rt->malloc(n * 8);
      VirtualBuffer* dOut = rt->malloc(n * 8);
      std::vector<double> out(static_cast<std::size_t>(n), -1.0);
      rt->memcpy(dIdx, idx->data(), n * 8, MemcpyKind::HostToDevice);
      rt->memcpy(dIn, in.data(), n * 8, MemcpyKind::HostToDevice);
      rt->memcpy(dOut, out.data(), n * 8, MemcpyKind::HostToDevice);
      LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofBuffer(dIdx),
                          LaunchArg::ofBuffer(dIn), LaunchArg::ofBuffer(dOut)};
      EXPECT_NO_THROW(rt->launch("scatter", {n / 64, 1, 1}, {64, 1, 1}, args));
      rt->memcpy(out.data(), dOut, n * 8, MemcpyKind::DeviceToHost);
      EXPECT_EQ(out, expect) << gpus << " GPUs, "
                             << (idx == &allZero ? "all-zero" : "many-to-one")
                             << " idx";
      rt->free(dIdx);
      rt->free(dIn);
      rt->free(dOut);
    }
  }
}

TEST(Dynamic, LaunchThatThrowsStillSamplesItsCounters) {
  // The may-write scatter passes validation and throws from inside the
  // launch, because observing its writes needs Functional execution, after
  // counting it: the launch guard must still sample the counters it moved
  // onto their trace tracks.
  KernelPtr k = buildScatter();
  ir::Module mod;
  mod.addKernel(k);
  ApplicationModel model = analysis::analyzeModule(mod);
  trace::Tracer tracer;
  RuntimeConfig cfg;
  cfg.numGpus = 2;
  cfg.mode = sim::ExecutionMode::TimingOnly;
  cfg.tracer = &tracer;
  Runtime rt(cfg, model, mod);
  VirtualBuffer* dIdx = rt.malloc(256 * 8);
  VirtualBuffer* dIn = rt.malloc(256 * 8);
  VirtualBuffer* dOut = rt.malloc(256 * 8);
  LaunchArg args[] = {LaunchArg::ofInt(256), LaunchArg::ofBuffer(dIdx),
                      LaunchArg::ofBuffer(dIn), LaunchArg::ofBuffer(dOut)};
  EXPECT_THROW(rt.launch("scatter", {4, 1, 1}, {64, 1, 1}, args),
               UnsupportedOperationError);
  EXPECT_EQ(rt.stats().launches, 1);

  const json::Value root = tracer.toJson();
  std::vector<double> launchSamples;
  for (const json::Value& ev : root.at("traceEvents").asArray()) {
    if (ev.at("ph").asString() != "C" || ev.at("name").asString() != "launches")
      continue;
    const json::Value& v = ev.at("args").at("value");
    launchSamples.push_back(v.isInt() ? static_cast<double>(v.asInt())
                                      : v.asDouble());
  }
  EXPECT_EQ(launchSamples, std::vector<double>{1.0});
}

TEST(Dynamic, GatherReadDemotesToWholeExtentMayAccess) {
  KernelPtr k = buildGather();
  // Strict mode restores the paper's reject.
  {
    AnalysisOptions strict;
    strict.allowMayAccess = false;
    EXPECT_THROW(analysis::analyzeKernel(*k, strict), UnsupportedKernelError);
  }

  // Default: the indirect read demotes to the may-access tier, whose read
  // map is the array's whole declared extent.
  analysis::KernelModel m = analysis::analyzeKernel(*k);
  const analysis::ArrayModel* in = m.arrayFor(2);
  ASSERT_NE(in, nullptr);
  EXPECT_TRUE(in->readMayAccess);
  EXPECT_FALSE(in->mayAccessWhy.empty());
  EXPECT_TRUE(in->hasReads());
  EXPECT_FALSE(in->read.exact());
  // Whatever the partition, the read covers the full array.
  std::vector<i64> params = {64, 1, 1, 4, 1, 1, /*n=*/256};
  std::vector<i64> ins = {128, 0, 0, 2, 0, 0};
  EXPECT_TRUE(in->read.contains(params, ins, std::vector<i64>{0}));
  EXPECT_TRUE(in->read.contains(params, ins, std::vector<i64>{255}));
  EXPECT_FALSE(in->read.contains(params, ins, std::vector<i64>{256}));
}

TEST(Dynamic, GatherExecutesCorrectlyOnMayAccessTier) {
  KernelPtr k = buildGather();
  ir::Module mod;
  mod.addKernel(k);
  ApplicationModel model = analysis::analyzeModule(mod);

  const i64 n = 384;
  Rng rng(9);
  std::vector<i64> idx(static_cast<std::size_t>(n));
  for (auto& v : idx) v = rng.range(0, n - 1);  // arbitrary gather sources
  std::vector<double> in(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = static_cast<double>(i) * 0.5;

  // Inspector off: the whole-extent read map is synchronized.  On: only the
  // inspected footprints are.
  for (bool inspector : {false, true})
    for (int gpus : {1, 4, 6}) {
      RuntimeConfig cfg;
      cfg.numGpus = gpus;
      cfg.inspectorExecutor = inspector;
      Runtime rt(cfg, model, mod);
      VirtualBuffer* dIdx = rt.malloc(n * 8);
      VirtualBuffer* dIn = rt.malloc(n * 8);
      VirtualBuffer* dOut = rt.malloc(n * 8);
      rt.memcpy(dIdx, idx.data(), n * 8, MemcpyKind::HostToDevice);
      rt.memcpy(dIn, in.data(), n * 8, MemcpyKind::HostToDevice);
      LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofBuffer(dIdx),
                          LaunchArg::ofBuffer(dIn), LaunchArg::ofBuffer(dOut)};
      rt.launch("gather", {n / 64, 1, 1}, {64, 1, 1}, args);
      EXPECT_EQ(rt.stats().inspectorRuns, inspector ? 1 : 0);
      std::vector<double> out(static_cast<std::size_t>(n), -1.0);
      rt.memcpy(out.data(), dOut, n * 8, MemcpyKind::DeviceToHost);
      for (i64 i = 0; i < n; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)],
                  in[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])])
            << gpus << " GPUs, inspector " << inspector << ", element " << i;
    }
}

/// Gather through an f64 scalar: out[i] = in[(i64)(s * (f64)i) % n].  Only
/// the f64 argument `s` decides which elements a partition reads.
KernelPtr buildScaledGather() {
  KernelBuilder b("scaled_gather");
  auto n = b.scalar("n", Type::I64);
  auto s = b.scalar("s", Type::F64);
  auto in = b.array("in", Type::F64, {n});
  auto out = b.array("out", Type::F64, {n});
  auto i = b.let("i", b.globalId(Axis::X));
  b.iff(lt(i, n), [&] {
    ExprPtr src =
        ir::Expr::cast(Type::I64, s * ir::Expr::cast(Type::F64, i)) % n;
    b.store(out, i, b.load(in, src));
  });
  return b.build();
}

TEST(Dynamic, InspectionCacheKeysOnF64Scalars) {
  // Launches that differ only in the f64 scalar read different elements, so
  // they must not share an inspection; repeating a scalar still hits.
  KernelPtr k = buildScaledGather();
  ir::Module mod;
  mod.addKernel(k);
  ApplicationModel model = analysis::analyzeModule(mod);
  ASSERT_TRUE(model.find("scaled_gather")->arrayFor(2)->readMayAccess);

  const i64 n = 256;
  std::vector<double> in(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    in[static_cast<std::size_t>(i)] = 1.0 + static_cast<double>(i) * 0.25;
  RuntimeConfig cfg;
  cfg.numGpus = 4;
  cfg.mode = sim::ExecutionMode::Functional;
  cfg.inspectorExecutor = true;
  Runtime rt(cfg, model, mod);
  VirtualBuffer* dIn = rt.malloc(n * 8);
  VirtualBuffer* dOut = rt.malloc(n * 8);
  rt.memcpy(dIn, in.data(), n * 8, MemcpyKind::HostToDevice);
  for (double s : {1.0, 3.0, 1.0}) {
    LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(s),
                        LaunchArg::ofBuffer(dIn), LaunchArg::ofBuffer(dOut)};
    rt.launch("scaled_gather", {n / 64, 1, 1}, {64, 1, 1}, args);
    std::vector<double> out(static_cast<std::size_t>(n), -1.0);
    rt.memcpy(out.data(), dOut, n * 8, MemcpyKind::DeviceToHost);
    for (i64 i = 0; i < n; ++i) {
      const i64 src = static_cast<i64>(s * static_cast<double>(i)) % n;
      EXPECT_EQ(out[static_cast<std::size_t>(i)],
                in[static_cast<std::size_t>(src)])
          << "s = " << s << ", element " << i;
    }
  }
  EXPECT_EQ(rt.stats().inspectorRuns, 2);
  EXPECT_EQ(rt.stats().inspectorCacheHits, 1);
}

TEST(Dynamic, AnnotationsOverrideExtractedMaps) {
  // Annotate hotspot's output with the map its own analysis derives; the
  // annotated model must behave identically.
  KernelPtr k = apps::buildHotspot();
  analysis::KernelModel base = analysis::analyzeKernel(*k);
  const analysis::ArrayModel* tout = base.arrayFor(5);
  ASSERT_NE(tout, nullptr);

  analysis::KernelAnnotations ann;
  ann.annotateWrite(5, tout->write);
  AnalysisOptions opts;
  opts.annotations = &ann;
  analysis::KernelModel annotated = analysis::analyzeKernel(*k, opts);
  const analysis::ArrayModel* tout2 = annotated.arrayFor(5);
  ASSERT_NE(tout2, nullptr);
  EXPECT_FALSE(tout2->writeMayAccess);
  std::vector<i64> params = {4, 4, 1, 4, 4, 1, 16};
  std::vector<i64> ins = {0, 4, 0, 0, 1, 0};
  EXPECT_TRUE(tout2->write.contains(params, ins, std::vector<i64>{4, 0}));
  EXPECT_FALSE(tout2->write.contains(params, ins, std::vector<i64>{3, 2}));
}

TEST(Dynamic, AnnotationRescuesScatterWithKnownPattern) {
  // A "scatter" whose index buffer the programmer knows is the identity can
  // be annotated with the identity write map, avoiding the may-access tier.
  KernelPtr k = buildScatter();
  analysis::KernelModel base = analysis::analyzeKernel(*k);
  // Identity map: out dim a0 == box + tx projected => box <= a0 < box+bdx,
  // bounded by n.  Reuse saxpy's write map shape by building it directly.
  pset::Space space = analysis::accessMapSpace(base.paramSpace(), 1);
  pset::BasicSet bs(space);
  pset::LinExpr a0 = pset::LinExpr::dim(space, pset::DimId::out(0));
  pset::LinExpr box = pset::LinExpr::dim(space, pset::DimId::in(0));
  pset::LinExpr bdx = pset::LinExpr::dim(space, pset::DimId::param(0));
  pset::LinExpr n = pset::LinExpr::dim(space, pset::DimId::param(6));
  bs.addGe(a0 - box);
  bs.addGe(box + bdx - a0 + pset::LinExpr::constant(space, -1));
  bs.addGe(n - a0 + pset::LinExpr::constant(space, -1));
  bs.addGe(a0);
  pset::Map identity(space);
  identity.addPart(std::move(bs));

  analysis::KernelAnnotations ann;
  ann.annotateWrite(3, identity);
  AnalysisOptions opts;
  opts.annotations = &ann;
  analysis::KernelModel m = analysis::analyzeKernel(*k, opts);
  EXPECT_FALSE(m.arrayFor(3)->writeMayAccess);
  EXPECT_TRUE(m.arrayFor(3)->hasWrites());
}

}  // namespace
}  // namespace polypart::rt
