// Integration tests for the runtime (paper Section 8): virtual buffers,
// memcpy translation, the Fig. 4 partitioned launch, the end-to-end
// property that multi-GPU partitioned execution is bit-identical to the CPU
// reference for every benchmark and GPU count, and interleaved launch
// streams sharing one runtime.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "apps/reference.h"
#include "rt/cuda_api.h"
#include "rt/runtime.h"
#include "support/json.h"
#include "support/rng.h"

namespace polypart::rt {
namespace {

using analysis::ApplicationModel;

std::unique_ptr<Runtime> makeRuntime(const RuntimeConfig& cfg) {
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel model = analysis::analyzeModule(mod);
  return std::make_unique<Runtime>(cfg, std::move(model), mod);
}

std::unique_ptr<Runtime> makeRuntime(int gpus,
                                     sim::ExecutionMode mode = sim::ExecutionMode::Functional) {
  RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = mode;
  return makeRuntime(cfg);
}

TEST(Runtime, DeviceCountIsAlwaysOne) {
  auto rt = makeRuntime(8);
  // Section 8.4: the replacement hides the real device count.
  EXPECT_EQ(rt->getDeviceCount(), 1);
}

TEST(Runtime, MemcpyRoundTripLinearDistribution) {
  auto rt = makeRuntime(4);
  const i64 n = 1000;
  std::vector<double> src(n), dst(n, -1.0);
  std::iota(src.begin(), src.end(), 0.0);
  VirtualBuffer* vb = rt->malloc(n * 8);
  rt->memcpy(vb, src.data(), n * 8, MemcpyKind::HostToDevice);
  // H2D distributes linearly: four ownership segments.
  EXPECT_EQ(vb->tracker().segmentCount(), 4u);
  EXPECT_EQ(vb->tracker().ownerAt(0), 0);
  EXPECT_EQ(vb->tracker().ownerAt(n * 8 - 1), 3);
  rt->memcpy(dst.data(), vb, n * 8, MemcpyKind::DeviceToHost);
  EXPECT_EQ(src, dst);
  rt->free(vb);
}

TEST(Runtime, DeviceToDeviceMemcpyRejected) {
  auto rt = makeRuntime(2);
  VirtualBuffer* a = rt->malloc(64);
  VirtualBuffer* b = rt->malloc(64);
  EXPECT_THROW(rt->memcpy(a, b, 64, MemcpyKind::DeviceToDevice),
               UnsupportedOperationError);
  rt->free(a);
  rt->free(b);
}

TEST(Runtime, UndefinedRegionsNotCopiedBack) {
  auto rt = makeRuntime(2);
  const i64 n = 100;
  VirtualBuffer* vb = rt->malloc(n * 8);
  std::vector<double> dst(n, 7.0);
  rt->memcpy(dst.data(), vb, n * 8, MemcpyKind::DeviceToHost);
  // Never written: host buffer untouched.
  for (double v : dst) EXPECT_EQ(v, 7.0);
  rt->free(vb);
}

TEST(Runtime, MallocRejectsPartialElementSizes) {
  // Buffers hold 8-byte elements.  The inspection walk's host mirror, the
  // tracker walks, and the H2D split are all sized in whole elements, so a
  // 20-byte buffer's last 4 bytes would fall outside them (the mirror copy
  // used to write past its end).
  auto rt = makeRuntime(2);
  try {
    rt->malloc(20);
    ADD_FAILURE() << "malloc(20) must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("20 bytes"), std::string::npos)
        << e.what();
  }
  VirtualBuffer* ok = rt->malloc(24);  // whole elements are fine
  EXPECT_EQ(ok->bytes(), 24);
  rt->free(ok);
}

TEST(Runtime, GpartMallocRejectsPartialElementSizes) {
  auto rt = makeRuntime(2);
  ScopedGpartRuntime scope(*rt);
  void* p = nullptr;
  EXPECT_EQ(gpartMalloc(&p, 20), gpartErrorInvalidValue);
  EXPECT_EQ(p, nullptr);
  ASSERT_EQ(gpartMalloc(&p, 24), gpartSuccess);
  EXPECT_EQ(gpartFree(p), gpartSuccess);
}

TEST(Runtime, GpartMemcpyDeviceToDeviceReturnsNotSupported) {
  static_assert(gpartErrorNotSupported == 801);  // cudaErrorNotSupported
  auto rt = makeRuntime(2);
  ScopedGpartRuntime scope(*rt);
  void* a = nullptr;
  void* b = nullptr;
  ASSERT_EQ(gpartMalloc(&a, 64), gpartSuccess);
  ASSERT_EQ(gpartMalloc(&b, 64), gpartSuccess);
  EXPECT_EQ(gpartMemcpy(a, b, 64, gpartMemcpyDeviceToDevice),
            gpartErrorNotSupported);
  EXPECT_EQ(gpartMemcpyAsync(a, b, 64, gpartMemcpyDeviceToDevice),
            gpartErrorNotSupported);
  EXPECT_EQ(gpartFree(a), gpartSuccess);
  EXPECT_EQ(gpartFree(b), gpartSuccess);
}

TEST(Runtime, OversizedMemcpyThrowsAndLeavesTheBufferAlone) {
  // A count larger than the buffer is the caller's mistake: it throws Error
  // naming both sizes, before the machine model or the tracker move.
  auto rt = makeRuntime(4);
  std::vector<double> host(101, 1.5);
  VirtualBuffer* vb = rt->malloc(800);
  rt->memcpy(vb, host.data(), 800, MemcpyKind::HostToDevice);
  const auto trackerBefore = vb->tracker().dump();
  const sim::MachineStats machineBefore = rt->machine().stats();
  for (MemcpyKind kind : {MemcpyKind::HostToDevice, MemcpyKind::DeviceToHost}) {
    try {
      if (kind == MemcpyKind::HostToDevice)
        rt->memcpy(vb, host.data(), 808, kind);
      else
        rt->memcpy(host.data(), vb, 808, kind);
      ADD_FAILURE() << "an 808-byte memcpy into an 800-byte buffer must throw";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("808 bytes"), std::string::npos) << what;
      EXPECT_NE(what.find("800-byte"), std::string::npos) << what;
    }
  }
  EXPECT_THROW(rt->memcpy(vb, host.data(), -8, MemcpyKind::HostToDevice), Error);
  EXPECT_EQ(vb->tracker().dump(), trackerBefore);
  EXPECT_EQ(rt->machine().stats(), machineBefore);
  rt->free(vb);
}

TEST(Runtime, GpartMemcpyOversizedCountReturnsInvalidValue) {
  auto rt = makeRuntime(2);
  ScopedGpartRuntime scope(*rt);
  void* p = nullptr;
  ASSERT_EQ(gpartMalloc(&p, 800), gpartSuccess);
  std::vector<double> host(101, 1.5);
  EXPECT_EQ(gpartMemcpy(p, host.data(), 808, gpartMemcpyHostToDevice),
            gpartErrorInvalidValue);
  EXPECT_EQ(gpartMemcpy(host.data(), p, 808, gpartMemcpyDeviceToHost),
            gpartErrorInvalidValue);
  // A size_t count above INT64_MAX must not wrap into a valid one.
  EXPECT_EQ(gpartMemcpy(p, host.data(), SIZE_MAX, gpartMemcpyHostToDevice),
            gpartErrorInvalidValue);
  EXPECT_EQ(gpartFree(p), gpartSuccess);
}

TEST(Runtime, GpartMallocOfSizeMaxReturnsInvalidValue) {
  // SIZE_MAX is negative as an i64 byte count.
  auto rt = makeRuntime(2);
  ScopedGpartRuntime scope(*rt);
  void* p = nullptr;
  EXPECT_EQ(gpartMalloc(&p, SIZE_MAX), gpartErrorInvalidValue);
  EXPECT_EQ(p, nullptr);
}

TEST(Runtime, GpartLaunchRejectedByTheRuntimeReturnsInvalidConfiguration) {
  static_assert(gpartErrorInvalidConfiguration == 9);  // CUDA: same code
  auto rt = makeRuntime(2);
  ScopedGpartRuntime scope(*rt);
  const i64 n = 32;
  void* bufs[3] = {};
  for (void*& p : bufs) ASSERT_EQ(gpartMalloc(&p, n * n * 8), gpartSuccess);
  const i64 blocks = (n + apps::kBlock2D - 1) / apps::kBlock2D;
  // hotspot's model pins gridDim.z == 1.
  EXPECT_EQ(gpartLaunchKernel("hotspot", {blocks, blocks, 2},
                              {apps::kBlock2D, apps::kBlock2D, 1},
                              {gpartArgOf(n), gpartArgOf(0.4), gpartArgOf(0.05),
                               gpartArgOf(bufs[0]), gpartArgOf(bufs[1]),
                               gpartArgOf(bufs[2])}),
            gpartErrorInvalidConfiguration);
  EXPECT_EQ(rt->stats().launches, 0);
  for (void* p : bufs) EXPECT_EQ(gpartFree(p), gpartSuccess);
}

TEST(Runtime, RetiredEngineKnobsMustBeZero) {
  // resolutionThreads and pipelineDepth stay declared for source
  // compatibility only; any other value than 0 is rejected by name.
  auto message = [](const RuntimeConfig& cfg) -> std::string {
    try {
      makeRuntime(cfg);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  RuntimeConfig threads;
  threads.resolutionThreads = 2;
  EXPECT_NE(message(threads).find("resolutionThreads"), std::string::npos);
  RuntimeConfig depth;
  depth.pipelineDepth = 1;
  EXPECT_NE(message(depth).find("pipelineDepth"), std::string::npos);
}

TEST(Runtime, RejectsModelThatDoesNotMatchModule) {
  // Pass 2 loads models from disk.  A model that does not describe the
  // module's kernel is rejected at construction, naming the kernel and the
  // argument, before a launch could index the argument list through it.
  ir::Module mod;
  mod.addKernel(apps::buildSaxpy());  // (n: i64, a: f64, x: f64[], y: f64[])
  const std::string good = analysis::analyzeModule(mod).toJson().dump();
  auto message = [&](const std::function<void(analysis::KernelModel&)>& edit) {
    ApplicationModel model = ApplicationModel::fromJson(json::Value::parse(good));
    edit(model.kernels[0]);
    // Through the disk format, as pass 2 would see the edited file.
    model = ApplicationModel::fromJson(json::Value::parse(model.toJson().dump()));
    try {
      Runtime rt(RuntimeConfig{}, std::move(model), mod);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  auto says = [](const std::string& msg, std::initializer_list<const char*> parts) {
    for (const char* p : parts)
      if (msg.find(p) == std::string::npos) return false;
    return true;
  };
  using analysis::KernelModel;
  EXPECT_EQ(message([](KernelModel&) {}), "");

  std::string m = message([](KernelModel& km) { km.kernel = "saxpi"; });
  EXPECT_TRUE(says(m, {"'saxpi'"})) << m;
  m = message([](KernelModel& km) { km.params.pop_back(); });
  EXPECT_TRUE(says(m, {"'saxpy'", "3 params", "has 4"})) << m;
  m = message([](KernelModel& km) { km.params[2].isArray = false; });
  EXPECT_TRUE(says(m, {"'saxpy'", "argument 2 ('x')"})) << m;
  m = message([](KernelModel& km) { km.params[3].type = ir::Type::I64; });
  EXPECT_TRUE(says(m, {"'saxpy'", "argument 3 ('y')"})) << m;
  m = message([](KernelModel& km) { km.arrays[0].argIndex = 9; });
  EXPECT_TRUE(says(m, {"'saxpy'", "argument 9"})) << m;
  m = message([](KernelModel& km) { km.arrays[0].argIndex = 1; });
  EXPECT_TRUE(says(m, {"'saxpy'", "argument 1", "scalar 'a'"})) << m;
  m = message([](KernelModel& km) { km.arrays[1].argIndex = km.arrays[0].argIndex; });
  EXPECT_TRUE(says(m, {"'saxpy'", "already names"})) << m;
}

TEST(Runtime, LaunchValidatesUnitAxes) {
  auto rt = makeRuntime(2);
  VirtualBuffer* x = rt->malloc(800);
  VirtualBuffer* y = rt->malloc(800);
  LaunchArg args[] = {LaunchArg::ofInt(100), LaunchArg::ofFloat(1.0),
                      LaunchArg::ofBuffer(x), LaunchArg::ofBuffer(y)};
  // saxpy ignores the y axis entirely: a 2-D launch must be rejected.
  EXPECT_THROW(rt->launch("saxpy", {1, 2, 1}, {128, 1, 1}, args), Error);
  EXPECT_THROW(rt->launch("saxpy", {1, 1, 1}, {128, 2, 1}, args), Error);
  rt->free(x);
  rt->free(y);
}

TEST(Runtime, SaxpyMatchesReferenceOnManyGpuCounts) {
  const i64 n = 5000;
  for (int gpus : {1, 2, 3, 4, 7, 16}) {
    auto rt = makeRuntime(gpus);
    std::vector<double> x(n), y(n), expect(n);
    for (i64 i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(i);
      y[static_cast<std::size_t>(i)] = 1.0 + static_cast<double>(i % 17);
    }
    expect = y;
    apps::refSaxpy(3.5, x, expect);
    apps::runSaxpy(*rt, n, 3.5, x.data(), y.data());
    EXPECT_EQ(y, expect) << gpus << " GPUs";
  }
}

TEST(Runtime, HotspotMatchesReferenceAcrossIterations) {
  const i64 n = 40;
  const int iters = 7;
  Rng rng(11);
  std::vector<double> init(static_cast<std::size_t>(n * n));
  std::vector<double> power(static_cast<std::size_t>(n * n));
  for (auto& v : init) v = rng.uniform() * 100.0;
  for (auto& v : power) v = rng.uniform();

  // CPU reference: ping-pong exactly like the driver.
  std::vector<double> a = init, b(static_cast<std::size_t>(n * n), 0.0);
  for (int it = 0; it < iters; ++it) {
    apps::refHotspotStep(n, 0.175, 0.05, a, power, b);
    std::swap(a, b);
  }

  for (int gpus : {1, 2, 3, 5, 16}) {
    auto rt = makeRuntime(gpus);
    std::vector<double> temp = init;
    apps::runHotspot(*rt, n, iters, temp.data(), power.data());
    EXPECT_EQ(temp, a) << gpus << " GPUs";
    // Halo exchange must have happened for gpus > 1 and iters > 1.
    if (gpus > 1) {
      EXPECT_GT(rt->stats().peerCopies, 0) << gpus;
    }
  }
}

TEST(Runtime, NBodyMatchesReference) {
  const i64 n = 60;
  const int iters = 4;
  Rng rng(23);
  auto fill = [&](std::vector<double>& v) {
    v.resize(static_cast<std::size_t>(n));
    for (auto& x : v) x = rng.uniform() * 2.0 - 1.0;
  };
  std::vector<double> px, py, pz, vx, vy, vz, mass;
  fill(px); fill(py); fill(pz); fill(vx); fill(vy); fill(vz); fill(mass);
  for (auto& m : mass) m = std::abs(m) + 0.1;

  // CPU reference.
  std::vector<double> rpx = px, rpy = py, rpz = pz, rvx = vx, rvy = vy, rvz = vz;
  std::vector<double> ax(static_cast<std::size_t>(n)), ay(ax), az(ax);
  for (int it = 0; it < iters; ++it) {
    apps::refNBodyForces(n, rpx, rpy, rpz, mass, ax, ay, az);
    apps::refNBodyUpdate(n, 0.01, rpx, rpy, rpz, rvx, rvy, rvz, ax, ay, az);
  }

  for (int gpus : {1, 2, 4, 9}) {
    auto rt = makeRuntime(gpus);
    std::vector<double> tpx = px, tpy = py, tpz = pz, tvx = vx, tvy = vy, tvz = vz;
    apps::NBodyState st{tpx.data(), tpy.data(), tpz.data(),
                        tvx.data(), tvy.data(), tvz.data(), mass.data()};
    apps::runNBody(*rt, n, iters, st);
    EXPECT_EQ(tpx, rpx) << gpus;
    EXPECT_EQ(tvx, rvx) << gpus;
    EXPECT_EQ(tpz, rpz) << gpus;
  }
}

TEST(Runtime, MatmulMatchesReference) {
  const i64 n = 32;
  Rng rng(5);
  std::vector<double> a(static_cast<std::size_t>(n * n));
  std::vector<double> b(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = rng.uniform();
  for (auto& v : b) v = rng.uniform();
  std::vector<double> expect(static_cast<std::size_t>(n * n));
  apps::refMatmul(n, a, b, expect);

  for (int gpus : {1, 2, 3, 8}) {
    auto rt = makeRuntime(gpus);
    std::vector<double> c(static_cast<std::size_t>(n * n), -1.0);
    apps::runMatmul(*rt, n, a.data(), b.data(), c.data());
    EXPECT_EQ(c, expect) << gpus << " GPUs";
  }
}

TEST(Runtime, BetaGammaSwitchesReduceWork) {
  // α: full run; β: no transfers; γ: no resolution.  The switches drive the
  // overhead decomposition of Section 9.2.
  const i64 n = 64;
  auto run = [&](bool transfers, bool resolution) {
    RuntimeConfig cfg;
    cfg.numGpus = 4;
    cfg.mode = sim::ExecutionMode::TimingOnly;
    cfg.enableTransfers = transfers;
    cfg.enableDependencyResolution = resolution;
    ir::Module mod = apps::buildBenchmarkModule();
    Runtime rt(cfg, analysis::analyzeModule(mod), mod);
    apps::runHotspot(rt, n, 10, nullptr, nullptr);
    return std::make_tuple(rt.elapsedSeconds(), rt.machineStats().bytesPeerToPeer,
                           rt.stats().rangesResolved);
  };
  auto [alphaT, alphaBytes, alphaRanges] = run(true, true);
  auto [betaT, betaBytes, betaRanges] = run(false, true);
  auto [gammaT, gammaBytes, gammaRanges] = run(false, false);
  EXPECT_GT(alphaBytes, 0);
  EXPECT_EQ(betaBytes, 0);
  EXPECT_EQ(gammaBytes, 0);
  EXPECT_GT(betaRanges, 0);
  EXPECT_EQ(gammaRanges, 0);
  EXPECT_GE(alphaT, betaT);
  EXPECT_GE(betaT, gammaT);
  EXPECT_GT(gammaT, 0.0);
}

TEST(Runtime, SingleGpuPartitionedOverheadIsSmall) {
  // Section 9.2: running the partitioned binary on one GPU costs a few
  // percent over the reference (median 2.1 % on paper-sized problems).
  const i64 n = 8192;  // the paper's "Small" Hotspot configuration
  const int iters = 20;
  auto rt = makeRuntime(1, sim::ExecutionMode::TimingOnly);
  apps::runHotspot(*rt, n, iters, nullptr, nullptr);
  double partitioned = rt->elapsedSeconds();

  sim::Machine ref(sim::MachineSpec::k80Node(1), sim::ExecutionMode::TimingOnly);
  apps::referenceHotspot(ref, n, iters, nullptr, nullptr);
  double reference = ref.completionTime();

  EXPECT_GT(partitioned, reference);
  EXPECT_LT(partitioned, reference * 1.10);
}

TEST(Runtime, MultiGpuIsFasterOnLargeProblems) {
  // Paper-scale iterative problem: fixed H2D/D2H costs amortize and the
  // kernels dominate, so adding GPUs must pay off clearly.
  const i64 n = 16384;
  const int iters = 60;
  auto time = [&](int gpus) {
    auto rt = makeRuntime(gpus, sim::ExecutionMode::TimingOnly);
    apps::runHotspot(*rt, n, iters, nullptr, nullptr);
    return rt->elapsedSeconds();
  };
  double t1 = time(1);
  double t4 = time(4);
  double t8 = time(8);
  EXPECT_LT(t4, t1 / 2.0);
  EXPECT_LT(t8, t4);
}

TEST(Runtime, CudaApiShims) {
  auto rt = makeRuntime(2);
  ScopedGpartRuntime scope(*rt);
  void* p = nullptr;
  ASSERT_EQ(gpartMalloc(&p, 800), gpartSuccess);
  ASSERT_NE(p, nullptr);
  std::vector<double> host(100, 2.5), back(100, 0.0);
  EXPECT_EQ(gpartMemcpy(p, host.data(), 800, gpartMemcpyHostToDevice), gpartSuccess);
  EXPECT_EQ(gpartMemcpy(back.data(), p, 800, gpartMemcpyDeviceToHost), gpartSuccess);
  EXPECT_EQ(back, host);
  int count = -1;
  EXPECT_EQ(gpartGetDeviceCount(&count), gpartSuccess);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(gpartDeviceSynchronize(), gpartSuccess);
  EXPECT_EQ(gpartFree(p), gpartSuccess);
  EXPECT_EQ(gpartMalloc(nullptr, 8), gpartErrorInvalidValue);
}

TEST(Runtime, TrackerStaysCompactOnRegularKernels) {
  // Section 8.1: contiguous partitions keep the tracker at one segment per
  // partition.
  auto rt = makeRuntime(4);
  const i64 n = 64;
  std::vector<double> temp(static_cast<std::size_t>(n * n), 1.0);
  std::vector<double> power(static_cast<std::size_t>(n * n), 0.0);
  VirtualBuffer* t0 = rt->malloc(n * n * 8);
  VirtualBuffer* t1 = rt->malloc(n * n * 8);
  VirtualBuffer* pw = rt->malloc(n * n * 8);
  rt->memcpy(t0, temp.data(), n * n * 8, MemcpyKind::HostToDevice);
  rt->memcpy(pw, power.data(), n * n * 8, MemcpyKind::HostToDevice);
  LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(0.1),
                      LaunchArg::ofFloat(0.1), LaunchArg::ofBuffer(t0),
                      LaunchArg::ofBuffer(pw), LaunchArg::ofBuffer(t1)};
  rt->launch("hotspot", {4, 4, 1}, {16, 16, 1}, args);
  // Output tracker: one segment per GPU (4), no fragmentation.
  EXPECT_EQ(t1->tracker().segmentCount(), 4u);
  rt->free(t0);
  rt->free(t1);
  rt->free(pw);
}

TEST(Runtime, HostToDeviceMemcpyDrainsInFlightKernels) {
  // cudaMemcpy is blocking: a host-to-device scatter must wait for kernels
  // that are still writing the device instances.  Regression test for the
  // scatter racing ahead of in-flight kernels in the timing model (the
  // barrier used to come only after the copies were issued).
  const i64 n = i64{1} << 22;

  // Baseline: the H2D scatter alone on an idle machine.
  double copySeconds = 0;
  {
    auto rt = makeRuntime(2, sim::ExecutionMode::TimingOnly);
    VirtualBuffer* y = rt->malloc(n * 8);
    double before = rt->elapsedSeconds();
    rt->memcpy(y, nullptr, n * 8, MemcpyKind::HostToDevice);
    copySeconds = rt->elapsedSeconds() - before;
    ASSERT_GT(copySeconds, 0);
  }

  auto rt = makeRuntime(2, sim::ExecutionMode::TimingOnly);
  VirtualBuffer* x = rt->malloc(n * 8);
  VirtualBuffer* y = rt->malloc(n * 8);
  LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(2.0),
                      LaunchArg::ofBuffer(x), LaunchArg::ofBuffer(y)};
  rt->launch("saxpy", {n / 256, 1, 1}, {256, 1, 1}, args);
  double kernelDone = rt->elapsedSeconds();  // kernels still in flight
  rt->memcpy(y, nullptr, n * 8, MemcpyKind::HostToDevice);
  // The copies may only start after the kernels finish, so the total is at
  // least sequential (small slack for API-call bookkeeping differences).
  // Without the pre-scatter synchronize the copies overlap the kernels and
  // the total collapses towards max(kernel, copy) instead of the sum.
  EXPECT_GE(rt->elapsedSeconds(), kernelDone + 0.95 * copySeconds);
}

TEST(RuntimeDeathTest, DoubleFreeIsDiagnosed) {
  auto rt = makeRuntime(2);
  VirtualBuffer* vb = rt->malloc(64);
  rt->free(vb);
  EXPECT_DEATH(rt->free(vb), "double free of virtual buffer");
}

TEST(RuntimeDeathTest, FreeOfForeignPointerIsDiagnosed) {
  auto rt = makeRuntime(2);
  auto other = makeRuntime(2);
  VirtualBuffer* foreign = other->malloc(64);
  // A live buffer of a *different* runtime was never allocated by `rt`.
  EXPECT_DEATH(rt->free(foreign), "never allocated");
  other->free(foreign);
}

TEST(RuntimeDeathTest, FreeOfNullIsDiagnosed) {
  auto rt = makeRuntime(1);
  EXPECT_DEATH(rt->free(nullptr), "free of null virtual buffer");
}

// A freed or foreign VirtualBuffer* must be diagnosed before anything
// dereferences it (otherwise launch and memcpy read freed memory).
TEST(RuntimeDeathTest, LaunchOfAFreedBufferIsDiagnosed) {
  auto rt = makeRuntime(2);
  const i64 n = 512;
  VirtualBuffer* x = rt->malloc(n * 8);
  VirtualBuffer* y = rt->malloc(n * 8);
  rt->free(x);
  LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(2.0),
                      LaunchArg::ofBuffer(x), LaunchArg::ofBuffer(y)};
  EXPECT_DEATH(rt->launch("saxpy", {n / 256, 1, 1}, {256, 1, 1}, args),
               "use of a freed virtual buffer");
}

TEST(RuntimeDeathTest, HostToDeviceCopyIntoAFreedBufferIsDiagnosed) {
  auto rt = makeRuntime(2);
  std::vector<double> host(8, 1.0);
  VirtualBuffer* vb = rt->malloc(64);
  rt->free(vb);
  EXPECT_DEATH(rt->memcpy(vb, host.data(), 64, MemcpyKind::HostToDevice),
               "use of a freed virtual buffer");
}

TEST(RuntimeDeathTest, DeviceToHostCopyFromAFreedBufferIsDiagnosed) {
  auto rt = makeRuntime(2);
  std::vector<double> host(8, 1.0);
  VirtualBuffer* vb = rt->malloc(64);
  rt->free(vb);
  EXPECT_DEATH(rt->memcpy(host.data(), vb, 64, MemcpyKind::DeviceToHost),
               "use of a freed virtual buffer");
}

TEST(RuntimeDeathTest, DeviceToHostCopyFromAForeignPointerIsDiagnosed) {
  auto rt = makeRuntime(2);
  auto other = makeRuntime(2);
  std::vector<double> host(8, 1.0);
  VirtualBuffer* foreign = other->malloc(64);
  EXPECT_DEATH(rt->memcpy(host.data(), foreign, 64, MemcpyKind::DeviceToHost),
               "foreign pointer");
  other->free(foreign);
}

TEST(Runtime, FreedRecordIsPrunedWhenTheHeapReusesTheAddress) {
  // Free/malloc in a tight loop so the allocator reuses addresses.  Each
  // reuse must evict the stale freed record: otherwise a later bad free of
  // the recycled pointer would be misdiagnosed as a double free of the
  // long-gone original buffer.
  auto rt = makeRuntime(2);
  bool reused = false;
  for (int i = 0; i < 64 && !reused; ++i) {
    VirtualBuffer* a = rt->malloc(64);
    rt->free(a);
    VirtualBuffer* b = rt->malloc(64);
    if (b == a) {
      reused = true;
      // The record of the old `a` is gone; only live-buffer state remains.
      EXPECT_EQ(rt->freedRecordCount(), 0u);
    }
    rt->free(b);
  }
  // ASan quarantines freed chunks, so reuse may legitimately never happen
  // there; on the regular allocator the tight loop recycles within a few
  // iterations and the assertion above runs.
  if (!reused)
    GTEST_SKIP() << "allocator never recycled an address; pruning not "
                    "exercisable under this allocator";
}

TEST(RuntimeDeathTest, FreedRecordListIsBoundedButStillCatchesRecentFrees) {
  auto rt = makeRuntime(2);
  // Keep every buffer live while allocating so no address is ever recycled,
  // then free them all: the record list must stay bounded instead of growing
  // one entry per free for the life of the runtime.
  std::vector<VirtualBuffer*> bufs;
  for (int i = 0; i < 300; ++i) bufs.push_back(rt->malloc(64));
  for (VirtualBuffer* b : bufs) rt->free(b);
  EXPECT_LE(rt->freedRecordCount(), 256u);
  EXPECT_GT(rt->freedRecordCount(), 0u);
  // The most recent free is still on record, so its double free is still
  // diagnosed precisely.
  EXPECT_DEATH(rt->free(bufs.back()), "double free of virtual buffer");
}

TEST(Runtime, SharedCopyTrackingSkipsRedundantBroadcasts) {
  // N-Body masses are read by every GPU and never written: with shared-copy
  // tracking the second iteration must not re-transfer them.
  ir::Module mod = apps::buildBenchmarkModule();
  analysis::ApplicationModel model = analysis::analyzeModule(mod);
  auto run = [&](bool shared) {
    RuntimeConfig cfg;
    cfg.numGpus = 4;
    cfg.mode = sim::ExecutionMode::Functional;
    cfg.trackSharedCopies = shared;
    Runtime rt(cfg, model, mod);
    const i64 n = 256;
    std::vector<double> px(n, 1), py(n, 2), pz(n, 3), vx(n, 0), vy(n, 0), vz(n, 0),
        mass(n, 1);
    apps::NBodyState st{px.data(), py.data(), pz.data(),
                        vx.data(), vy.data(), vz.data(), mass.data()};
    apps::runNBody(rt, n, 4, st);
    return std::make_tuple(rt.stats().peerCopies, rt.stats().sharedCopyHits, px);
  };
  auto [copiesOff, hitsOff, pxOff] = run(false);
  auto [copiesOn, hitsOn, pxOn] = run(true);
  EXPECT_EQ(hitsOff, 0);
  EXPECT_GT(hitsOn, 0);
  EXPECT_LT(copiesOn, copiesOff);
  // Functional results are identical either way.
  EXPECT_EQ(pxOn, pxOff);
}

// -- interleaved streams -----------------------------------------------------

/// A hotspot ping-pong stream on its own buffers.  Streams never share
/// buffers, so interleaving them on one runtime couples them only through
/// the runtime's own state.
struct HotspotStream {
  i64 n = 0;
  VirtualBuffer* src = nullptr;
  VirtualBuffer* dst = nullptr;
  VirtualBuffer* pw = nullptr;

  void open(Runtime& rt, i64 gridN, u64 seed) {
    n = gridN;
    const i64 cells = n * n;
    Rng rng(seed);
    std::vector<double> temp(static_cast<std::size_t>(cells));
    std::vector<double> power(static_cast<std::size_t>(cells));
    for (auto& v : temp) v = rng.uniform() * 80.0;
    for (auto& v : power) v = rng.uniform();
    src = rt.malloc(cells * 8);
    dst = rt.malloc(cells * 8);
    pw = rt.malloc(cells * 8);
    rt.memcpy(src, temp.data(), cells * 8, MemcpyKind::HostToDevice);
    rt.memcpy(pw, power.data(), cells * 8, MemcpyKind::HostToDevice);
  }

  void step(Runtime& rt, i64 gridZ = 1) {
    const i64 blocks = (n + apps::kBlock2D - 1) / apps::kBlock2D;
    LaunchArg args[] = {LaunchArg::ofInt(n),      LaunchArg::ofFloat(0.4),
                        LaunchArg::ofFloat(0.05), LaunchArg::ofBuffer(src),
                        LaunchArg::ofBuffer(pw),  LaunchArg::ofBuffer(dst)};
    rt.launch("hotspot", {blocks, blocks, gridZ},
              {apps::kBlock2D, apps::kBlock2D, 1}, args);
    std::swap(src, dst);
  }

  std::vector<double> gather(Runtime& rt) {
    std::vector<double> out(static_cast<std::size_t>(n * n), -1.0);
    rt.memcpy(out.data(), src, n * n * 8, MemcpyKind::DeviceToHost);
    return out;
  }
};

TEST(Runtime, ValidationErrorLeavesTheRuntimeUsable) {
  auto rt = makeRuntime(4);
  HotspotStream s0, s1;
  s0.open(*rt, 32, 7);
  s1.open(*rt, 32, 9);
  s0.step(*rt);
  const RuntimeStats before = rt->stats();
  // hotspot's model pins gridDim.z == 1: the launch is rejected before it
  // touches any tracker, machine, or stats state.
  EXPECT_THROW(s1.step(*rt, /*gridZ=*/2), Error);
  EXPECT_EQ(rt->stats(), before);

  s1.step(*rt);
  s0.step(*rt);
  EXPECT_EQ(rt->stats().launches, 3);

  auto solo = makeRuntime(4);
  HotspotStream ref;
  ref.open(*solo, 32, 9);
  ref.step(*solo);
  EXPECT_EQ(s1.gather(*rt), ref.gather(*solo));
}

}  // namespace
}  // namespace polypart::rt
