// Tests for the two-pass compiler driver (paper Section 3): model
// persistence between passes, partitioned clones, enumerator generation,
// rewritten host code, and an end-to-end compile-then-execute check.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "apps/kernels.h"
#include "apps/reference.h"
#include "rt/cuda_api.h"
#include "tool/compiler.h"

namespace polypart::tool {
namespace {

const char* kSaxpyHost = R"(
int main() {
  float *x, *y;
  cudaMalloc(&x, n * sizeof(float));
  cudaMalloc(&y, n * sizeof(float));
  saxpy<<<blocks, 256>>>(n, a, x, y);
  cudaMemcpy(hy, y, bytes, cudaMemcpyDeviceToHost);
  return 0;
}
)";

TEST(Tool, CompileProducesAllArtifacts) {
  Compiler compiler;
  CompiledApplication app = compiler.compile(apps::buildBenchmarkModule(), kSaxpyHost);
  EXPECT_EQ(app.model().kernels.size(), 5u);
  EXPECT_EQ(app.partitionedKernels().kernels().size(), 5u);
  EXPECT_NE(app.partitionedKernels().find("saxpy__part"), nullptr);
  EXPECT_FALSE(app.enumerators().empty());
  EXPECT_EQ(app.rewriteReport().launchesRewritten, 1);
  EXPECT_NE(app.rewrittenHostSource().find("gpartLaunchKernel(\"saxpy\""),
            std::string::npos);
  EXPECT_GT(app.compileTimeRatio(), 1.0);
}

TEST(Tool, ModelRoundTripsThroughDisk) {
  std::string path =
      (std::filesystem::temp_directory_path() / "polypart_tool_test.model.json").string();
  Compiler compiler(CompileOptions{path});
  CompiledApplication app = compiler.compile(apps::buildBenchmarkModule(), kSaxpyHost);
  EXPECT_TRUE(std::filesystem::exists(path));
  analysis::ApplicationModel reloaded = analysis::ApplicationModel::loadFrom(path);
  EXPECT_EQ(reloaded.kernels.size(), app.model().kernels.size());
  EXPECT_NE(app.rewrittenHostSource().find(path), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Tool, CompiledApplicationExecutes) {
  Compiler compiler;
  CompiledApplication app = compiler.compile(apps::buildBenchmarkModule(), kSaxpyHost);
  rt::RuntimeConfig cfg;
  cfg.numGpus = 3;
  std::unique_ptr<rt::Runtime> runtime = app.makeRuntime(cfg);
  rt::ScopedGpartRuntime scope(*runtime);

  // Execute the compiled application the way its rewritten main() would.
  const i64 n = 1024;
  std::vector<double> hx(n, 2.0), hy(n, 1.0), expect(n);
  for (i64 i = 0; i < n; ++i) expect[static_cast<std::size_t>(i)] = 2.0 * 3.0 + 1.0;
  void *x = nullptr, *y = nullptr;
  ASSERT_EQ(rt::gpartMalloc(&x, n * 8), rt::gpartSuccess);
  ASSERT_EQ(rt::gpartMalloc(&y, n * 8), rt::gpartSuccess);
  rt::gpartMemcpy(x, hx.data(), n * 8, rt::gpartMemcpyHostToDevice);
  rt::gpartMemcpy(y, hy.data(), n * 8, rt::gpartMemcpyHostToDevice);
  rt::gpartLaunchKernel("saxpy", {n / 256, 1, 1}, {256, 1, 1},
                        {rt::gpartArgOf(n), rt::gpartArgOf(3.0), rt::gpartArgOf(x),
                         rt::gpartArgOf(y)});
  rt::gpartDeviceSynchronize();
  rt::gpartMemcpy(hy.data(), y, n * 8, rt::gpartMemcpyDeviceToHost);
  EXPECT_EQ(hy, expect);
  rt::gpartFree(x);
  rt::gpartFree(y);
}

TEST(Tool, CompileTimeRatioIsAroundTwo) {
  // The duplicated device pass makes the toolchain roughly twice as
  // expensive as a single compile (paper Section 3: 1.9x - 2.2x on real
  // LLVM; our stand-in passes differ in absolute cost, so the band here is
  // generous but the ratio must clearly exceed a single pass).  Each phase
  // is timed by its minimum over several compiles: load on the machine only
  // ever adds time, so the minima estimate the unloaded cost of each phase.
  Compiler compiler;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double pass1 = kInf, rewriting = kInf, pass2 = kInf, reference = kInf;
  for (int i = 0; i < 5; ++i) {
    CompiledApplication app =
        compiler.compile(apps::buildBenchmarkModule(), kSaxpyHost);
    pass1 = std::min(pass1, app.pass1Seconds());
    rewriting = std::min(rewriting, app.rewriteSeconds());
    pass2 = std::min(pass2, app.pass2Seconds());
    reference = std::min(reference, app.referenceCompileSeconds());
  }
  EXPECT_GT((pass1 + rewriting + pass2) / reference, 1.5);
}

}  // namespace
}  // namespace polypart::tool
