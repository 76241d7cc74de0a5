#include "tool/compiler.h"

#include <chrono>

#include "ir/optimize.h"
#include "ir/transform.h"
#include "ir/verify.h"
#include "pset/fm_internal.h"

namespace polypart::tool {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The work one device-compiler invocation performs regardless of the
/// partitioning machinery: verification, middle-end optimization, and code
/// emission.  Returns the emitted size so the compiler cannot drop the work.
std::size_t baselineCompile(const ir::Module& module) {
  std::size_t emitted = 0;
  ir::Module optimized = ir::optimizeModule(module);
  for (const ir::KernelPtr& k : optimized.kernels()) {
    ir::verify(*k);
    emitted += k->str().size();  // stand-in for machine-code emission
  }
  return emitted;
}

}  // namespace

std::unique_ptr<rt::Runtime> CompiledApplication::makeRuntime(
    rt::RuntimeConfig config) const {
  return std::make_unique<rt::Runtime>(config, model_, original_);
}

CompiledApplication Compiler::compile(const ir::Module& deviceCode,
                                      const std::string& hostSource) const {
  CompiledApplication app;
  app.original_ = deviceCode;

  // Reference: a single device-compiler invocation.  In the real toolchain
  // one gpucc run (front-end + middle-end with the analysis pass registered
  // + back-end) is the unit of work that gets duplicated; here the
  // polyhedral analysis dominates that pipeline, so the reference runs it
  // once just as a single gpucc invocation would.  Each of the three
  // analyses below stands for a separate compiler process, so each starts
  // with a cold projection memo.
  {
    pset::clearFmMemo();
    auto t0 = Clock::now();
    baselineCompile(deviceCode);
    analysis::analyzeModule(deviceCode);
    app.referenceSeconds_ = secondsSince(t0);
  }

  // Pass 1: compile + analyze; only the application model survives
  // (Section 3: "other results, e.g. object files, are discarded").
  {
    pset::clearFmMemo();
    auto t0 = Clock::now();
    baselineCompile(deviceCode);
    app.model_ = analysis::analyzeModule(deviceCode);
    if (!options_.modelPath.empty()) app.model_.saveTo(options_.modelPath);
    app.pass1Seconds_ = secondsSince(t0);
  }

  // Source-to-source rewrite of the host code (Section 5).
  {
    auto t0 = Clock::now();
    rewrite::Rewriter rw(options_.modelPath.empty() ? "app.model.json"
                                                    : options_.modelPath);
    app.hostSource_ = rw.rewrite(hostSource, &app.report_);
    app.rewriteSeconds_ = secondsSince(t0);
  }

  // Pass 2: compile again — the second gpucc invocation runs the same pass
  // pipeline (this duplication is the paper's 1.9x - 2.2x compile-time
  // overhead) — then clone + partition the kernels (Section 7) and generate
  // the enumerators from the reloaded model (Section 6).
  {
    pset::clearFmMemo();
    auto t0 = Clock::now();
    baselineCompile(deviceCode);
    analysis::analyzeModule(deviceCode);
    analysis::ApplicationModel model =
        options_.modelPath.empty()
            ? app.model_
            : analysis::ApplicationModel::loadFrom(options_.modelPath);
    for (const ir::KernelPtr& k : deviceCode.kernels())
      app.partitioned_.addKernel(ir::partitionKernel(*k));
    for (const analysis::KernelModel& km : model.kernels) {
      std::vector<codegen::Enumerator> es = codegen::buildEnumerators(km);
      for (codegen::Enumerator& e : es) app.enumerators_.push_back(std::move(e));
    }
    app.model_ = std::move(model);
    app.pass2Seconds_ = secondsSince(t0);
  }

  return app;
}

}  // namespace polypart::tool
