// Tests for the dynamic fallbacks the paper's conclusion proposes:
// instrumentation-collected write patterns and programmer annotations of
// access maps, plus the may-access tier that catches the remaining indirect
// accesses.

#include <gtest/gtest.h>

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
  // instead of rejecting the kernel.  POLYPART_STRICT_AFFINE / the
  // allowMayAccess option restore the paper's hard reject.
  KernelPtr k = buildScatter();
  analysis::KernelModel m = analysis::analyzeKernel(*k);
  const analysis::ArrayModel* out = m.arrayFor(3);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->writeMayAccess);
  EXPECT_FALSE(out->hasWrites());
  EXPECT_FALSE(out->writeInstrumented);
  EXPECT_NE(out->mayAccessWhy.find("out"), std::string::npos)
      << out->mayAccessWhy;

  AnalysisOptions strict;
  strict.allowMayAccess = false;
  EXPECT_THROW(analysis::analyzeKernel(*k, strict), UnsupportedKernelError);
}

TEST(Dynamic, ScatterModelMarksInstrumentedWrite) {
  KernelPtr k = buildScatter();
  AnalysisOptions opts;
  opts.allowInstrumentedWrites = true;
  analysis::KernelModel m = analysis::analyzeKernel(*k, opts);
  const analysis::ArrayModel* out = m.arrayFor(3);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->writeInstrumented);
  EXPECT_FALSE(out->hasWrites());
  // The serialized model round-trips the flag (pass 1 -> disk -> pass 2).
  analysis::KernelModel re = analysis::KernelModel::fromJson(
      json::Value::parse(m.toJson().dump()));
  EXPECT_TRUE(re.arrayFor(3)->writeInstrumented);
}

TEST(Dynamic, ScatterExecutesCorrectlyWithInstrumentation) {
  KernelPtr k = buildScatter();
  ir::Module mod;
  mod.addKernel(k);
  AnalysisOptions opts;
  opts.allowInstrumentedWrites = true;
  ApplicationModel model = analysis::analyzeModule(mod, opts);

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

TEST(Dynamic, InstrumentationDetectsWriteAfterWriteHazard) {
  KernelPtr k = buildScatter();
  ir::Module mod;
  mod.addKernel(k);
  AnalysisOptions opts;
  opts.allowInstrumentedWrites = true;
  ApplicationModel model = analysis::analyzeModule(mod, opts);

  const i64 n = 256;
  // All threads write element 0: partitions collide.
  std::vector<i64> idx(static_cast<std::size_t>(n), 0);
  std::vector<double> in(static_cast<std::size_t>(n), 1.0);
  auto rt = makeRuntime(mod, model, 4);
  VirtualBuffer* dIdx = rt->malloc(n * 8);
  VirtualBuffer* dIn = rt->malloc(n * 8);
  VirtualBuffer* dOut = rt->malloc(n * 8);
  rt->memcpy(dIdx, idx.data(), n * 8, MemcpyKind::HostToDevice);
  rt->memcpy(dIn, in.data(), n * 8, MemcpyKind::HostToDevice);
  LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofBuffer(dIdx),
                      LaunchArg::ofBuffer(dIn), LaunchArg::ofBuffer(dOut)};
  EXPECT_THROW(rt->launch("scatter", {n / 64, 1, 1}, {64, 1, 1}, args), Error);
}

TEST(Dynamic, InstrumentationRequiresFunctionalMode) {
  KernelPtr k = buildScatter();
  ir::Module mod;
  mod.addKernel(k);
  AnalysisOptions opts;
  opts.allowInstrumentedWrites = true;
  ApplicationModel model = analysis::analyzeModule(mod, opts);
  RuntimeConfig cfg;
  cfg.numGpus = 2;
  cfg.mode = sim::ExecutionMode::TimingOnly;
  Runtime rt(cfg, model, mod);
  VirtualBuffer* dIdx = rt.malloc(256 * 8);
  VirtualBuffer* dIn = rt.malloc(256 * 8);
  VirtualBuffer* dOut = rt.malloc(256 * 8);
  LaunchArg args[] = {LaunchArg::ofInt(256), LaunchArg::ofBuffer(dIdx),
                      LaunchArg::ofBuffer(dIn), LaunchArg::ofBuffer(dOut)};
  EXPECT_THROW(rt.launch("scatter", {4, 1, 1}, {64, 1, 1}, args),
               UnsupportedOperationError);
}

TEST(Dynamic, LaunchThatThrowsStillSamplesItsCounters) {
  // The instrumented scatter passes validation and throws from inside the
  // launch, after counting it: the launch guard must still sample the
  // counters it moved onto their trace tracks.
  KernelPtr k = buildScatter();
  ir::Module mod;
  mod.addKernel(k);
  AnalysisOptions opts;
  opts.allowInstrumentedWrites = true;
  ApplicationModel model = analysis::analyzeModule(mod, opts);
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
  EXPECT_FALSE(tout2->writeInstrumented);
  std::vector<i64> params = {4, 4, 1, 4, 4, 1, 16};
  std::vector<i64> ins = {0, 4, 0, 0, 1, 0};
  EXPECT_TRUE(tout2->write.contains(params, ins, std::vector<i64>{4, 0}));
  EXPECT_FALSE(tout2->write.contains(params, ins, std::vector<i64>{3, 2}));
}

TEST(Dynamic, AnnotationRescuesScatterWithKnownPattern) {
  // A "scatter" whose index buffer the programmer knows is the identity can
  // be annotated with the identity write map, avoiding instrumentation.
  KernelPtr k = buildScatter();
  analysis::KernelModel base;
  {
    AnalysisOptions opts;
    opts.allowInstrumentedWrites = true;
    base = analysis::analyzeKernel(*k, opts);
  }
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
  opts.allowInstrumentedWrites = true;
  opts.annotations = &ann;
  analysis::KernelModel m = analysis::analyzeKernel(*k, opts);
  EXPECT_FALSE(m.arrayFor(3)->writeInstrumented);
  EXPECT_TRUE(m.arrayFor(3)->hasWrites());
}

}  // namespace
}  // namespace polypart::rt
