// Reproduces the Section 3 compile-time claim: "This repeated invocation of
// gpucc introduces redundant work, resulting in a compile time increase from
// 1.9x - 2.2x for the tested applications."
//
// A second table times the enumerator execution tiers (DESIGN.md "Execution
// tiers"): per-enumeration cost of the interpreter and of the specializing
// VM's folded programs on the resolution miss path, plus the one-time
// constant-folding cost a specialized-program cache miss pays.

#include <chrono>

#include "bench/bench_util.h"
#include "codegen/enumerator.h"
#include "tool/compiler.h"

namespace {

const char* hostSourceFor(polypart::apps::Benchmark b) {
  switch (b) {
    case polypart::apps::Benchmark::Hotspot:
      return R"(
int main() {
  float *t0, *t1, *pw;
  cudaMalloc(&t0, cells * sizeof(float));
  cudaMalloc(&t1, cells * sizeof(float));
  cudaMalloc(&pw, cells * sizeof(float));
  cudaMemcpy(t0, temp, bytes, cudaMemcpyHostToDevice);
  cudaMemcpy(pw, power, bytes, cudaMemcpyHostToDevice);
  for (int it = 0; it < iterations; ++it) {
    hotspot<<<grid, block>>>(n, k, dt, t0, pw, t1);
    swap(t0, t1);
  }
  cudaMemcpy(temp, t0, bytes, cudaMemcpyDeviceToHost);
  return 0;
}
)";
    case polypart::apps::Benchmark::NBody:
      return R"(
int main() {
  for (int it = 0; it < iterations; ++it) {
    nbody_forces<<<grid, block>>>(n, px, py, pz, mass, ax, ay, az);
    nbody_update<<<grid, block>>>(n, dt, px, py, pz, vx, vy, vz, ax, ay, az);
  }
  cudaDeviceSynchronize();
  return 0;
}
)";
    case polypart::apps::Benchmark::Matmul:
      return R"(
int main() {
  cudaMemcpy(da, a, bytes, cudaMemcpyHostToDevice);
  cudaMemcpy(db, b, bytes, cudaMemcpyHostToDevice);
  matmul<<<grid, block>>>(n, da, db, dc);
  cudaMemcpy(c, dc, bytes, cudaMemcpyDeviceToHost);
  return 0;
}
)";
  }
  return "";
}

polypart::ir::Module moduleFor(polypart::apps::Benchmark b) {
  polypart::ir::Module m;
  switch (b) {
    case polypart::apps::Benchmark::Hotspot:
      m.addKernel(polypart::apps::buildHotspot());
      break;
    case polypart::apps::Benchmark::NBody:
      m.addKernel(polypart::apps::buildNBodyForces());
      m.addKernel(polypart::apps::buildNBodyUpdate());
      break;
    case polypart::apps::Benchmark::Matmul:
      m.addKernel(polypart::apps::buildMatmul());
      break;
  }
  return m;
}

struct TierCase {
  const char* name;
  polypart::ir::KernelPtr kernel;
  polypart::ir::LaunchConfig cfg;
  std::vector<polypart::i64> scalars;
};

/// Seconds per full partition sweep (all enumerators x 8 row-slice
/// partitions) on the given tier, specialized-program cache pre-warmed.
double timeTier(std::vector<polypart::codegen::Enumerator>& es,
                polypart::codegen::EnumTier tier,
                const std::vector<polypart::codegen::PartitionTuple>& parts,
                const polypart::ir::LaunchConfig& cfg,
                std::span<const polypart::i64> scalars, int reps) {
  namespace chrono = std::chrono;
  using polypart::i64;
  for (auto& e : es) e.tier = tier;
  i64 sink = 0;
  // Warm-up pass: faults pages, and for the specialized tier folds and
  // caches every (partition, launch) program so the timed loop measures the
  // per-enumeration miss path, not the one-time fold.
  for (const auto& part : parts)
    for (const auto& e : es)
      e.enumerate(part, cfg, scalars, [&](i64 b, i64 en) { sink += en - b; });
  auto t0 = chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r)
    for (const auto& part : parts)
      for (const auto& e : es)
        e.enumerate(part, cfg, scalars, [&](i64 b, i64 en) { sink += en - b; });
  double secs = chrono::duration<double>(chrono::steady_clock::now() - t0).count();
  if (sink == 42) std::printf(" ");  // keep the loop observable
  return secs / reps;
}

void printTierTable() {
  using namespace polypart;
  namespace chrono = std::chrono;
  std::printf("\nEnumerator execution tiers (miss-path enumeration; see\n"
              "DESIGN.md \"Execution tiers\" and RuntimeConfig::enumeratorTier)\n");
  std::printf("\n  %-10s %12s %12s %8s %12s\n", "App", "interpret",
              "specialized", "speedup", "fold (once)");

  std::vector<TierCase> cases;
  cases.push_back({"hotspot", apps::buildHotspot(),
                   {{1024, 1024, 1}, {16, 16, 1}}, {16384}});
  cases.push_back({"nbody", apps::buildNBodyForces(),
                   {{3907, 1, 1}, {256, 1, 1}}, {1000000}});
  cases.push_back({"matmul", apps::buildMatmul(),
                   {{512, 512, 1}, {16, 16, 1}}, {8192}});

  for (TierCase& c : cases) {
    analysis::KernelModel m = analysis::analyzeKernel(*c.kernel);
    std::vector<codegen::Enumerator> es = codegen::buildEnumerators(m);
    // Eight slices along the split axis (y for 2-D grids, x otherwise).
    std::vector<codegen::PartitionTuple> parts;
    const bool splitY = c.cfg.grid.y > 1;
    const i64 extent = splitY ? c.cfg.grid.y : c.cfg.grid.x;
    for (int p = 0; p < 8; ++p) {
      ir::GridPartition gp{{0, 0, 0}, {c.cfg.grid.x, c.cfg.grid.y, c.cfg.grid.z}};
      i64 lo = extent * p / 8, hi = extent * (p + 1) / 8;
      if (splitY) { gp.lo.y = lo; gp.hi.y = hi; } else { gp.lo.x = lo; gp.hi.x = hi; }
      parts.push_back(codegen::PartitionTuple::fromBlocks(gp, c.cfg.block));
    }
    const int reps = 200;
    double ti = timeTier(es, codegen::EnumTier::Interpret, parts, c.cfg,
                         c.scalars, reps);
    double ts = timeTier(es, codegen::EnumTier::Specialized, parts, c.cfg,
                         c.scalars, reps);
    // One-time fold cost: specialize every enumerator's program for one
    // fresh parameter vector (distinct scalars defeat the program cache).
    auto f0 = chrono::steady_clock::now();
    int folds = 0;
    for (const auto& e : es) {
      std::vector<i64> sc = c.scalars;
      sc[0] += 1;  // unseen key
      e.enumerate(parts[0], c.cfg, sc, [](i64, i64) {});
      ++folds;
    }
    double fold =
        chrono::duration<double>(chrono::steady_clock::now() - f0).count() /
        folds;
    std::printf("  %-10s %9.2f us %9.2f us %7.2fx %9.2f us\n", c.name,
                1e6 * ti, 1e6 * ts, ti / ts, 1e6 * fold);
    json::Value& row = benchutil::benchRow();
    row["table"] = "tiers";
    row["app"] = c.name;
    row["interpretSeconds"] = ti;
    row["specializedSeconds"] = ts;
    row["speedup"] = ti / ts;
    row["foldOnceSeconds"] = fold;
  }
  std::printf("\nInterpret is the paper-mode default; specialized compiles each\n"
              "enumerator once per kernel and folds the partition 6-tuple +\n"
              "launch config into the program on first sight (cached under\n"
              "the enumeration key, so repeated launch shapes pay the fold\n"
              "once).\n");
}

}  // namespace

int main() {
  using namespace polypart;
  using namespace polypart::benchutil;

  openBenchReport("compile_time");
  printHeader("Compile-time overhead of the two-pass toolchain",
              "Matz et al., ICPP Workshops 2020, Section 3 (1.9x - 2.2x)");

  std::printf("\n  %-10s %12s %12s %12s %12s %8s\n", "App", "reference", "pass 1",
              "rewrite", "pass 2", "ratio");
  const int repeats = 5;
  for (apps::Benchmark b :
       {apps::Benchmark::Hotspot, apps::Benchmark::NBody, apps::Benchmark::Matmul}) {
    ir::Module mod = moduleFor(b);
    std::string host = hostSourceFor(b);
    tool::Compiler compiler;
    double ref = 0, p1 = 0, rw = 0, p2 = 0, ratio = 0;
    for (int r = 0; r < repeats; ++r) {
      tool::CompiledApplication app = compiler.compile(mod, host);
      ref += app.referenceCompileSeconds();
      p1 += app.pass1Seconds();
      rw += app.rewriteSeconds();
      p2 += app.pass2Seconds();
      ratio += app.compileTimeRatio();
    }
    std::printf("  %-10s %9.3f ms %9.3f ms %9.3f ms %9.3f ms %7.2fx\n",
                apps::benchmarkName(b), 1e3 * ref / repeats, 1e3 * p1 / repeats,
                1e3 * rw / repeats, 1e3 * p2 / repeats, ratio / repeats);
    json::Value& row = benchRow();
    row["table"] = "compile";
    row["app"] = apps::benchmarkName(b);
    row["referenceSeconds"] = ref / repeats;
    row["pass1Seconds"] = p1 / repeats;
    row["rewriteSeconds"] = rw / repeats;
    row["pass2Seconds"] = p2 / repeats;
    row["ratio"] = ratio / repeats;
  }
  std::printf("\nPaper reference: 1.9x - 2.2x, caused by invoking the device\n"
              "compiler (and its full pass pipeline) twice; the rewrite step\n"
              "is negligible in both systems.\n");

  printTierTable();
  return 0;
}
