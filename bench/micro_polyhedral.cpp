// Microbenchmarks for the polyhedral substrate: Fourier-Motzkin projection,
// feasibility checks, the access analysis, and enumerator evaluation.  These
// support the claim that compile-time analysis keeps run-time dependency
// resolution cheap (paper Sections 4, 6, 9.2).

#include <benchmark/benchmark.h>

#include "analysis/analyze.h"
#include "apps/kernels.h"
#include "codegen/enumerator.h"
#include "pset/ast.h"
#include "pset/map.h"

namespace {

using namespace polypart;
using pset::BasicSet;
using pset::DimId;
using pset::DimKind;
using pset::LinExpr;
using pset::Space;

BasicSet stencilReadSet() {
  // params: [n, lo, hi]; dims: [y, x]; constraints of a halo read set.
  Space s = Space::set({"n", "lo", "hi"}, {"y", "x"});
  BasicSet bs(s);
  LinExpr y = LinExpr::dim(s, DimId::in(0));
  LinExpr x = LinExpr::dim(s, DimId::in(1));
  LinExpr n = LinExpr::dim(s, DimId::param(0));
  LinExpr lo = LinExpr::dim(s, DimId::param(1));
  LinExpr hi = LinExpr::dim(s, DimId::param(2));
  bs.addGe(y - lo + LinExpr::constant(s, 1));
  bs.addGe(hi - y);
  bs.addGe(y);
  bs.addGe(n - y + LinExpr::constant(s, -1));
  bs.addGe(x);
  bs.addGe(n - x + LinExpr::constant(s, -1));
  return bs;
}

void BM_FourierMotzkinProjection(benchmark::State& state) {
  BasicSet bs = stencilReadSet();
  for (auto _ : state) {
    auto p = bs.projectOut(DimKind::In, 1, 1);
    benchmark::DoNotOptimize(p.exact);
  }
}
BENCHMARK(BM_FourierMotzkinProjection);

void BM_Feasibility(benchmark::State& state) {
  BasicSet bs = stencilReadSet();
  for (auto _ : state) {
    auto f = bs.feasibility();
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_Feasibility);

void BM_BuildScan(benchmark::State& state) {
  BasicSet bs = stencilReadSet();
  for (auto _ : state) {
    pset::ScanNest nest = pset::buildScan(bs);
    benchmark::DoNotOptimize(nest.levels.size());
  }
}
BENCHMARK(BM_BuildScan);

void BM_AnalyzeKernel(benchmark::State& state) {
  ir::KernelPtr k;
  switch (state.range(0)) {
    case 0: k = apps::buildSaxpy(); break;
    case 1: k = apps::buildHotspot(); break;
    default: k = apps::buildMatmul(); break;
  }
  for (auto _ : state) {
    analysis::KernelModel m = analysis::analyzeKernel(*k);
    benchmark::DoNotOptimize(m.arrays.size());
  }
}
BENCHMARK(BM_AnalyzeKernel)->Arg(0)->Arg(1)->Arg(2)
    ->ArgName("kernel(0=saxpy,1=hotspot,2=matmul)");

void BM_EnumeratorEvaluation(benchmark::State& state) {
  static analysis::KernelModel model = analysis::analyzeKernel(*apps::buildHotspot());
  static std::vector<codegen::Enumerator> es = codegen::buildEnumerators(model);
  const bool coalesce = state.range(0) != 0;
  ir::LaunchConfig cfg{{1024, 1024, 1}, {16, 16, 1}};
  i64 scalars[] = {16384};
  codegen::PartitionTuple part = codegen::PartitionTuple::fromBlocks(
      ir::GridPartition{{0, 256, 0}, {1024, 512, 1}}, cfg.block);
  std::vector<codegen::Enumerator> local = es;
  for (codegen::Enumerator& e : local) e.coalesce = coalesce;
  for (auto _ : state) {
    i64 total = 0;
    for (const codegen::Enumerator& e : local)
      e.enumerate(part, cfg, scalars, [&](i64 b, i64 en) { total += en - b; });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_EnumeratorEvaluation)->Arg(1)->Arg(0)->ArgName("coalesce");

// Execution-tier comparison on the enumeration miss path (DESIGN.md
// "Execution tiers"): one kernel's full enumerator set (coalesce on) under
// the interpreter and the walk over the folded nests.  The nests are
// folded once outside the timed region — exactly the runtime's situation
// when a launch configuration repeats but its plan missed (or was evicted
// from) the enumeration cache.  Two regimes:
// matmul's enumerations are bound by guard/bound evaluation, where
// specialization pays off the most; hotspot's are dominated by the
// per-row range emission of its stencil write, which every tier walks
// identically, so the tiers converge there (the honest floor).
void BM_EnumeratorTier(benchmark::State& state) {
  static analysis::KernelModel hotspotModel =
      analysis::analyzeKernel(*apps::buildHotspot());
  static analysis::KernelModel matmulModel =
      analysis::analyzeKernel(*apps::buildMatmul());
  const bool isMatmul = state.range(0) != 0;
  static std::vector<codegen::Enumerator> hotspotEs =
      codegen::buildEnumerators(hotspotModel);
  static std::vector<codegen::Enumerator> matmulEs =
      codegen::buildEnumerators(matmulModel);
  const auto tier = static_cast<codegen::EnumTier>(state.range(1));
  ir::LaunchConfig cfg = isMatmul
      ? ir::LaunchConfig{{512, 512, 1}, {16, 16, 1}}
      : ir::LaunchConfig{{1024, 1024, 1}, {16, 16, 1}};
  i64 scalars[] = {isMatmul ? 8192 : 16384};
  codegen::PartitionTuple part = codegen::PartitionTuple::fromBlocks(
      ir::GridPartition{{0, cfg.grid.y / 4, 0}, {cfg.grid.x, cfg.grid.y / 2, 1}},
      cfg.block);
  std::vector<codegen::Enumerator> local = isMatmul ? matmulEs : hotspotEs;
  for (codegen::Enumerator& e : local) {
    e.tier = tier;
    if (tier == codegen::EnumTier::Specialized)
      e.enumerate(part, cfg, scalars, [](i64, i64) {});  // warm the fold cache
  }
  for (auto _ : state) {
    i64 total = 0;
    for (const codegen::Enumerator& e : local)
      e.enumerate(part, cfg, scalars, [&](i64 b, i64 en) { total += en - b; });
    benchmark::DoNotOptimize(total);
  }
  state.SetLabel(std::string(isMatmul ? "matmul/" : "hotspot/") +
                 codegen::enumTierName(tier));
}
BENCHMARK(BM_EnumeratorTier)
    ->Args({0, static_cast<int>(codegen::EnumTier::Interpret)})
    ->Args({0, static_cast<int>(codegen::EnumTier::Specialized)})
    ->Args({1, static_cast<int>(codegen::EnumTier::Interpret)})
    ->Args({1, static_cast<int>(codegen::EnumTier::Specialized)})
    ->ArgNames({"kernel(0=hotspot,1=matmul)", "tier(0=interpret,1=specialized)"});

// First-call cost of the specializing tier: constant-folding the scan-nest
// ASTs against one parameter vector (AstExpr::specialize; the price a miss
// in the Specialized tier's cache pays before the cheap evaluations begin).
void BM_SpecializeProgram(benchmark::State& state) {
  static analysis::KernelModel model = analysis::analyzeKernel(*apps::buildHotspot());
  static std::vector<codegen::Enumerator> es = codegen::buildEnumerators(model);
  ir::LaunchConfig cfg{{1024, 1024, 1}, {16, 16, 1}};
  i64 scalars[] = {16384};
  std::vector<codegen::Enumerator> local = es;
  for (codegen::Enumerator& e : local) e.tier = codegen::EnumTier::Specialized;
  // A fresh partition tuple per iteration defeats the FIFO-bounded program
  // cache (64 entries, 512 distinct keys here), so nearly every enumerate()
  // call runs the fold-and-insert miss path.
  i64 row = 0;
  for (auto _ : state) {
    codegen::PartitionTuple part = codegen::PartitionTuple::fromBlocks(
        ir::GridPartition{{0, row % 512, 0}, {1024, 512 + row % 512, 1}},
        cfg.block);
    ++row;
    i64 total = 0;
    for (const codegen::Enumerator& e : local)
      e.enumerate(part, cfg, scalars, [&](i64 b, i64 en) { total += en - b; });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_SpecializeProgram);

void BM_InjectivityCheck(benchmark::State& state) {
  ir::KernelPtr k = apps::buildHotspot();
  for (auto _ : state) {
    // The injectivity machinery dominates analyzeKernel; isolate it by
    // re-running the full analysis on the write-heaviest kernel.
    analysis::KernelModel m = analysis::analyzeKernel(*k);
    benchmark::DoNotOptimize(m.strategy);
  }
}
BENCHMARK(BM_InjectivityCheck)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
