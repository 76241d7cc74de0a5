// The four workloads of the benchmark (README.md gives the reason for each).

#include "perfbench/harness/workloads.h"

#include <algorithm>
#include <memory>

#include "apps/drivers.h"
#include "apps/kernels.h"
#include "apps/reference.h"
#include "apps/workloads.h"
#include "bench/bench_util.h"
#include "ir/builder.h"
#include "perfbench/harness/session.h"
#include "support/error.h"
#include "support/rng.h"

namespace polypart::perfbench {

namespace {

using ir::Dim3;
using rt::LaunchArg;
using rt::VirtualBuffer;
using sim::ExecutionMode;

constexpr i64 kElem = 8;  // storage bytes per element

// Scalar constants of the paper applications (apps/drivers.cpp).
constexpr double kHotspotK = 0.175;
constexpr double kHotspotDt = 0.05;
constexpr double kNBodyDt = 0.01;

u64 fnv1a(u64 h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
u64 digest(u64 h, const std::vector<T>& v) {
  return fnv1a(h, v.data(), v.size() * sizeof(T));
}

std::vector<double> uniformVector(Rng& rng, i64 n, double lo, double hi) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = lo + (hi - lo) * rng.uniform();
  return v;
}

// ---- paper_timing: Fig. 6 Medium configurations, paper-mode runtime ---------

void runHotspot(Session& s, i64 n, int iters, double* temp,
                const double* power) {
  const i64 bytes = n * n * kElem;
  VirtualBuffer* t0 = s.malloc(bytes);
  VirtualBuffer* t1 = s.malloc(bytes);
  VirtualBuffer* pw = s.malloc(bytes);
  s.h2d(t0, temp, bytes);
  s.h2d(pw, power, bytes);
  const i64 blocks = ceilDiv(n, apps::kBlock2D);
  const Dim3 grid{blocks, blocks, 1};
  const Dim3 block{apps::kBlock2D, apps::kBlock2D, 1};
  VirtualBuffer* src = t0;
  VirtualBuffer* dst = t1;
  for (int it = 0; it < iters; ++it) {
    s.launch("hotspot", grid, block,
             {LaunchArg::ofInt(n), LaunchArg::ofFloat(kHotspotK),
              LaunchArg::ofFloat(kHotspotDt), LaunchArg::ofBuffer(src),
              LaunchArg::ofBuffer(pw), LaunchArg::ofBuffer(dst)});
    std::swap(src, dst);
  }
  s.d2h(temp, src, bytes);
}

struct NBodyHost {
  std::vector<double> px, py, pz, vx, vy, vz, mass;
};

void runNBody(Session& s, i64 n, int iters, NBodyHost* h) {
  const i64 bytes = n * kElem;
  auto ptr = [&](std::vector<double> NBodyHost::*field) -> double* {
    return h != nullptr ? (h->*field).data() : nullptr;
  };
  VirtualBuffer* px = s.malloc(bytes);
  VirtualBuffer* py = s.malloc(bytes);
  VirtualBuffer* pz = s.malloc(bytes);
  VirtualBuffer* vx = s.malloc(bytes);
  VirtualBuffer* vy = s.malloc(bytes);
  VirtualBuffer* vz = s.malloc(bytes);
  VirtualBuffer* ax = s.malloc(bytes);
  VirtualBuffer* ay = s.malloc(bytes);
  VirtualBuffer* az = s.malloc(bytes);
  VirtualBuffer* ms = s.malloc(bytes);
  s.h2d(px, ptr(&NBodyHost::px), bytes);
  s.h2d(py, ptr(&NBodyHost::py), bytes);
  s.h2d(pz, ptr(&NBodyHost::pz), bytes);
  s.h2d(vx, ptr(&NBodyHost::vx), bytes);
  s.h2d(vy, ptr(&NBodyHost::vy), bytes);
  s.h2d(vz, ptr(&NBodyHost::vz), bytes);
  s.h2d(ms, ptr(&NBodyHost::mass), bytes);
  const Dim3 grid{ceilDiv(n, apps::kBlock1D), 1, 1};
  const Dim3 block{apps::kBlock1D, 1, 1};
  for (int it = 0; it < iters; ++it) {
    s.launch("nbody_forces", grid, block,
             {LaunchArg::ofInt(n), LaunchArg::ofBuffer(px), LaunchArg::ofBuffer(py),
              LaunchArg::ofBuffer(pz), LaunchArg::ofBuffer(ms),
              LaunchArg::ofBuffer(ax), LaunchArg::ofBuffer(ay),
              LaunchArg::ofBuffer(az)});
    s.launch("nbody_update", grid, block,
             {LaunchArg::ofInt(n), LaunchArg::ofFloat(kNBodyDt),
              LaunchArg::ofBuffer(px), LaunchArg::ofBuffer(py),
              LaunchArg::ofBuffer(pz), LaunchArg::ofBuffer(vx),
              LaunchArg::ofBuffer(vy), LaunchArg::ofBuffer(vz),
              LaunchArg::ofBuffer(ax), LaunchArg::ofBuffer(ay),
              LaunchArg::ofBuffer(az)});
  }
  s.d2h(ptr(&NBodyHost::px), px, bytes);
  s.d2h(ptr(&NBodyHost::py), py, bytes);
  s.d2h(ptr(&NBodyHost::pz), pz, bytes);
  s.d2h(ptr(&NBodyHost::vx), vx, bytes);
  s.d2h(ptr(&NBodyHost::vy), vy, bytes);
  s.d2h(ptr(&NBodyHost::vz), vz, bytes);
}

void runMatmul(Session& s, i64 n, const double* a, const double* b, double* c) {
  const i64 bytes = n * n * kElem;
  VirtualBuffer* da = s.malloc(bytes);
  VirtualBuffer* db = s.malloc(bytes);
  VirtualBuffer* dc = s.malloc(bytes);
  s.h2d(da, a, bytes);
  s.h2d(db, b, bytes);
  const i64 blocks = ceilDiv(n, apps::kBlock2D);
  s.launch("matmul", Dim3{blocks, blocks, 1},
           Dim3{apps::kBlock2D, apps::kBlock2D, 1},
           {LaunchArg::ofInt(n), LaunchArg::ofBuffer(da), LaunchArg::ofBuffer(db),
            LaunchArg::ofBuffer(dc)});
  s.d2h(c, dc, bytes);
}

/// Hotspot, N-Body and Matmul at Table 1 Medium sizes and iteration counts on
/// 1, 4, 8 and 16 GPUs, TimingOnly, paper-mode runtime (enumeration cache
/// off, interpret tier, no extensions).  Host time is enumeration plus
/// tracker work; the fixed reference point for the paper figures.
class PaperTiming final : public Workload {
 public:
  PaperTiming() : Workload(apps::buildBenchmarkModule()) {}

  int minPasses() const override { return 1; }

  void replica(Recorder& rec) override {
    PassRecord unmeasured;  // replica runs are checked, not measured
    for (int gpus : kGpuCounts) {
      {
        std::vector<double> temp = hotspotInit_;
        Session s(rec, config(gpus, ExecutionMode::Functional), model_, module_);
        runHotspot(s, kHotspotN, kHotspotIters, temp.data(), hotspotPower_.data());
        s.finish(unmeasured, "", 1);
        rec.checkEqual(std::move(temp), hotspotWant_);
      }
      {
        NBodyHost h = nbodyInit_;
        Session s(rec, config(gpus, ExecutionMode::Functional), model_, module_);
        runNBody(s, kNBodyN, kNBodyIters, &h);
        s.finish(unmeasured, "", 1);
        for (auto field : {&NBodyHost::px, &NBodyHost::py, &NBodyHost::pz,
                           &NBodyHost::vx, &NBodyHost::vy, &NBodyHost::vz})
          rec.checkEqual(std::move(h.*field), nbodyWant_.*field);
      }
      {
        std::vector<double> c(matA_.size(), -7.0);
        Session s(rec, config(gpus, ExecutionMode::Functional), model_, module_);
        runMatmul(s, kMatmulN, matA_.data(), matB_.data(), c.data());
        s.finish(unmeasured, "", 1);
        rec.checkEqual(std::move(c), matWant_);
      }
    }
  }

  void pass(Recorder& rec, PassRecord& out) override {
    for (const Run& r : runs_) {
      for (int gpus : kGpuCounts) {
        Session s(rec, config(gpus, ExecutionMode::TimingOnly), model_, module_);
        switch (r.benchmark) {
          case apps::Benchmark::Hotspot:
            runHotspot(s, r.n, r.iters, nullptr, nullptr);
            break;
          case apps::Benchmark::NBody:
            runNBody(s, r.n, r.iters, nullptr);
            break;
          case apps::Benchmark::Matmul:
            runMatmul(s, r.n, nullptr, nullptr, nullptr);
            break;
        }
        s.finish(out,
                 std::string(apps::benchmarkName(r.benchmark)) + " " +
                     std::to_string(gpus) + "G",
                 r.referenceSeconds);
      }
    }
  }

 protected:
  rt::RuntimeConfig setupConfig() const override {
    return config(16, ExecutionMode::TimingOnly);
  }

  void makeInputs(u64 seed) override {
    // The timed phase moves no data (TimingOnly); the seed feeds the
    // Functional replica only, so modeled numbers are seed-independent.
    Rng rng(seed);
    hotspotInit_ = uniformVector(rng, kHotspotN * kHotspotN, 0, 50);
    hotspotPower_ = uniformVector(rng, kHotspotN * kHotspotN, 0, 1);
    for (auto field : {&NBodyHost::px, &NBodyHost::py, &NBodyHost::pz,
                       &NBodyHost::vx, &NBodyHost::vy, &NBodyHost::vz})
      nbodyInit_.*field = uniformVector(rng, kNBodyN, -0.5, 0.5);
    nbodyInit_.mass = uniformVector(rng, kNBodyN, 0.2, 1.2);
    matA_ = uniformVector(rng, kMatmulN * kMatmulN, 0, 1);
    matB_ = uniformVector(rng, kMatmulN * kMatmulN, 0, 1);
    for (const std::vector<double>* v :
         {&hotspotInit_, &hotspotPower_, &nbodyInit_.px, &nbodyInit_.mass, &matA_,
          &matB_})
      digest_ = digest(digest_, *v);

    // CPU references for the replica (apps/reference.h).
    hotspotWant_ = hotspotInit_;
    std::vector<double> scratch(hotspotWant_.size());
    for (int it = 0; it < kHotspotIters; ++it) {
      apps::refHotspotStep(kHotspotN, kHotspotK, kHotspotDt, hotspotWant_,
                           hotspotPower_, scratch);
      std::swap(hotspotWant_, scratch);
    }
    nbodyWant_ = nbodyInit_;
    std::vector<double> ax(static_cast<std::size_t>(kNBodyN)), ay(ax), az(ax);
    for (int it = 0; it < kNBodyIters; ++it) {
      NBodyHost& w = nbodyWant_;
      apps::refNBodyForces(kNBodyN, w.px, w.py, w.pz, w.mass, ax, ay, az);
      apps::refNBodyUpdate(kNBodyN, kNBodyDt, w.px, w.py, w.pz, w.vx, w.vy, w.vz,
                           ax, ay, az);
    }
    matWant_.assign(matA_.size(), 0.0);
    apps::refMatmul(kMatmulN, matA_, matB_, matWant_);
  }

  void computeReferences() override {
    runs_.clear();
    for (apps::Benchmark b : {apps::Benchmark::Hotspot, apps::Benchmark::NBody,
                              apps::Benchmark::Matmul}) {
      const apps::WorkloadConfig wc = apps::configFor(b, apps::ProblemSize::Medium);
      const int iters = static_cast<int>(wc.iterations);
      runs_.push_back(Run{b, wc.problemSize, iters,
                          benchutil::runReference(b, wc.problemSize, iters)});
    }
  }

 private:
  static constexpr int kGpuCounts[] = {1, 4, 8, 16};
  // Replica sizes: small enough to interpret, several blocks per axis.
  static constexpr i64 kHotspotN = 64;
  static constexpr int kHotspotIters = 4;
  static constexpr i64 kNBodyN = 256;
  static constexpr int kNBodyIters = 2;
  static constexpr i64 kMatmulN = 48;

  static rt::RuntimeConfig config(int gpus, ExecutionMode mode) {
    rt::RuntimeConfig c = pinnedConfig(gpus, mode);
    c.enableEnumerationCache = false;  // the paper re-enumerates every launch
    return c;
  }

  struct Run {
    apps::Benchmark benchmark;
    i64 n;
    int iters;
    double referenceSeconds;
  };
  std::vector<Run> runs_;
  std::vector<double> hotspotInit_, hotspotPower_, hotspotWant_;
  NBodyHost nbodyInit_, nbodyWant_;
  std::vector<double> matA_, matB_, matWant_;
};

// ---- iterative_planned: the period-3 Jacobi loop plus a global read --------

constexpr i64 kJacobiElems = i64{1} << 20;
constexpr i64 kJacobiBlock = 256;
constexpr i64 kJacobiRed = 1024;   // reduction fan-in per partial
constexpr i64 kNormSlots = 4096;   // norm outputs: 16 blocks, one per GPU at 16

/// The bench/dataflow_plan kernels (jacobi, residual, copyback) plus `norm`:
/// every thread sums the whole residual-partials array, the one-to-many read
/// of a CG-style global scalar.
ir::Module buildIterativeModule() {
  using ir::fconst;
  using ir::iconst;
  using ir::land;
  using ir::lt;
  ir::Module mod;
  {
    ir::KernelBuilder b("jacobi");
    auto n = b.scalar("n", ir::Type::I64);
    auto in = b.array("in", ir::Type::F64, {n});
    auto out = b.array("out", ir::Type::F64, {n});
    auto x = b.let("x", b.globalId(ir::Axis::X));
    b.iff(lt(x, n), [&] {
      b.iff(
          land(ir::ge(x, iconst(1)), lt(x, n - iconst(1))),
          [&] {
            auto acc = b.let("acc", b.load(in, x - iconst(1)));
            b.assign(acc, acc + b.load(in, x));
            b.assign(acc, acc + b.load(in, x + iconst(1)));
            b.store(out, x, acc * fconst(1.0 / 3.0));
          },
          [&] { b.store(out, x, b.load(in, x)); });
    });
    mod.addKernel(b.build());
  }
  {
    ir::KernelBuilder b("residual");
    auto m = b.scalar("m", ir::Type::I64);
    auto in = b.array("in", ir::Type::F64, {m * iconst(kJacobiRed)});
    auto out = b.array("out", ir::Type::F64, {m * iconst(kJacobiRed)});
    auto part = b.array("part", ir::Type::F64, {m});
    auto j = b.let("j", b.globalId(ir::Axis::X));
    b.iff(lt(j, m), [&] {
      auto acc = b.let("acc", fconst(0.0));
      b.forLoop("k", iconst(0), iconst(kJacobiRed), [&](ir::ExprPtr k) {
        auto idx = b.let("idx", j * iconst(kJacobiRed) + k);
        auto d = b.let("d", b.load(out, idx) - b.load(in, idx));
        b.assign(acc, acc + d * d);
      });
      b.store(part, j, acc);
    });
    mod.addKernel(b.build());
  }
  {
    ir::KernelBuilder b("norm");
    auto m = b.scalar("m", ir::Type::I64);
    auto t = b.scalar("t", ir::Type::I64);
    auto part = b.array("part", ir::Type::F64, {m});
    auto nrm = b.array("nrm", ir::Type::F64, {t});
    auto i = b.let("i", b.globalId(ir::Axis::X));
    b.iff(lt(i, t), [&] {
      auto acc = b.let("acc", fconst(0.0));
      b.forLoop("k", iconst(0), m,
                [&](ir::ExprPtr k) { b.assign(acc, acc + b.load(part, k)); });
      b.store(nrm, i, acc);
    });
    mod.addKernel(b.build());
  }
  {
    ir::KernelBuilder b("copyback");
    auto n = b.scalar("n", ir::Type::I64);
    auto out = b.array("out", ir::Type::F64, {n});
    auto in = b.array("in", ir::Type::F64, {n});
    auto x = b.let("x", b.globalId(ir::Axis::X));
    b.iff(lt(x, n), [&] { b.store(in, x, b.load(out, x)); });
    mod.addKernel(b.build());
  }
  return mod;
}

/// The Jacobi loop on 16 GPUs, TimingOnly, with the dataflow planner, the
/// transfer scheduler, shared-copy tracking and peer-link modeling on and
/// the enumeration cache warm: planner, transfer plan and cache replay work
/// while the enumerator idles.
class IterativePlanned final : public Workload {
 public:
  IterativePlanned() : Workload(buildIterativeModule()) {}

  int minPasses() const override { return 20; }

  void replica(Recorder& rec) override {
    PassRecord unmeasured;  // replica runs are checked, not measured
    std::vector<double> in = replicaInit_;
    std::vector<double> nrm(static_cast<std::size_t>(kNormSlots));
    Session s(rec, config(ExecutionMode::Functional), model_, module_);
    runLoop(s, kReplicaElems, kReplicaIters, in.data(), nrm.data());
    s.finish(unmeasured, "", 1);
    rec.checkEqual(std::move(in), replicaWantIn_);
    rec.checkEqual(std::move(nrm), replicaWantNrm_);
  }

  void pass(Recorder& rec, PassRecord& out) override {
    Session s(rec, config(ExecutionMode::TimingOnly), model_, module_);
    runLoop(s, kJacobiElems, kIters, nullptr, nullptr);
    s.finish(out, "jacobi 16G", referenceSeconds_);
  }

 protected:
  rt::RuntimeConfig setupConfig() const override {
    return config(ExecutionMode::TimingOnly);
  }

  void makeInputs(u64 seed) override {
    Rng rng(seed);
    replicaInit_ = uniformVector(rng, kReplicaElems, -1, 1);
    digest_ = digest(digest_, replicaInit_);

    // CPU loop in the kernels' evaluation order (bit-for-bit reference).
    const i64 n = kReplicaElems;
    const i64 m = n / kJacobiRed;
    std::vector<double> in = replicaInit_, out(in.size()),
                        part(static_cast<std::size_t>(m)),
                        nrm(static_cast<std::size_t>(kNormSlots));
    auto at = [](std::vector<double>& v, i64 i) -> double& {
      return v[static_cast<std::size_t>(i)];
    };
    for (int it = 0; it < kReplicaIters; ++it) {
      for (i64 x = 0; x < n; ++x) {
        if (x >= 1 && x < n - 1) {
          double acc = at(in, x - 1);
          acc = acc + at(in, x);
          acc = acc + at(in, x + 1);
          at(out, x) = acc * (1.0 / 3.0);
        } else {
          at(out, x) = at(in, x);
        }
      }
      for (i64 j = 0; j < m; ++j) {
        double acc = 0.0;
        for (i64 k = 0; k < kJacobiRed; ++k) {
          const double d = at(out, j * kJacobiRed + k) - at(in, j * kJacobiRed + k);
          acc = acc + d * d;
        }
        at(part, j) = acc;
      }
      for (i64 t = 0; t < kNormSlots; ++t) {
        double acc = 0.0;
        for (i64 k = 0; k < m; ++k) acc = acc + at(part, k);
        at(nrm, t) = acc;
      }
      in = out;
    }
    replicaWantIn_ = std::move(in);
    replicaWantNrm_ = std::move(nrm);
  }

  void computeReferences() override {
    // The unpartitioned kernels on one device, TimingOnly (the single-GPU
    // binary the partitioned run is compared against).
    sim::Machine m(sim::MachineSpec::k80Node(1), ExecutionMode::TimingOnly);
    const i64 n = kJacobiElems;
    const i64 parts = n / kJacobiRed;
    sim::DevBuffer in = m.alloc(0, n * kElem);
    sim::DevBuffer out = m.alloc(0, n * kElem);
    sim::DevBuffer part = m.alloc(0, parts * kElem);
    sim::DevBuffer nrm = m.alloc(0, kNormSlots * kElem);
    m.copyHostToDevice(in, 0, nullptr, n * kElem);
    m.synchronizeAll();
    using sim::KernelArg;
    const Dim3 block{kJacobiBlock, 1, 1};
    for (int it = 0; it < kIters; ++it) {
      KernelArg jac[] = {KernelArg::ofInt(n), KernelArg::ofBuffer(in),
                         KernelArg::ofBuffer(out)};
      m.launchKernel(0, *module_.find("jacobi"), {grid(n), block}, jac);
      KernelArg red[] = {KernelArg::ofInt(parts), KernelArg::ofBuffer(in),
                         KernelArg::ofBuffer(out), KernelArg::ofBuffer(part)};
      m.launchKernel(0, *module_.find("residual"), {grid(parts), block}, red);
      KernelArg nor[] = {KernelArg::ofInt(parts), KernelArg::ofInt(kNormSlots),
                         KernelArg::ofBuffer(part), KernelArg::ofBuffer(nrm)};
      m.launchKernel(0, *module_.find("norm"), {grid(kNormSlots), block}, nor);
      KernelArg cpy[] = {KernelArg::ofInt(n), KernelArg::ofBuffer(out),
                         KernelArg::ofBuffer(in)};
      m.launchKernel(0, *module_.find("copyback"), {grid(n), block}, cpy);
    }
    m.synchronizeAll();
    m.copyDeviceToHost(nullptr, in, 0, n * kElem);
    m.copyDeviceToHost(nullptr, nrm, 0, kNormSlots * kElem);
    m.synchronizeAll();
    referenceSeconds_ = m.completionTime();
  }

 private:
  static constexpr int kIters = 200;
  static constexpr i64 kReplicaElems = i64{1} << 14;
  static constexpr int kReplicaIters = 10;

  static Dim3 grid(i64 threads) {
    return Dim3{ceilDiv(threads, kJacobiBlock), 1, 1};
  }

  static rt::RuntimeConfig config(ExecutionMode mode) {
    rt::RuntimeConfig c = pinnedConfig(16, mode);
    c.enableEnumerationCache = true;
    c.dataflowPlanning = true;
    c.transferScheduling = true;
    c.trackSharedCopies = true;
    c.machine.modelPeerLinks = true;
    return c;
  }

  static void runLoop(Session& s, i64 n, int iters, double* inHost,
                      double* nrmHost) {
    const i64 parts = n / kJacobiRed;
    VirtualBuffer* vin = s.malloc(n * kElem);
    VirtualBuffer* vout = s.malloc(n * kElem);
    VirtualBuffer* vpart = s.malloc(parts * kElem);
    VirtualBuffer* vnrm = s.malloc(kNormSlots * kElem);
    s.h2d(vin, inHost, n * kElem);
    const Dim3 block{kJacobiBlock, 1, 1};
    for (int it = 0; it < iters; ++it) {
      s.launch("jacobi", grid(n), block,
               {LaunchArg::ofInt(n), LaunchArg::ofBuffer(vin),
                LaunchArg::ofBuffer(vout)});
      s.launch("residual", grid(parts), block,
               {LaunchArg::ofInt(parts), LaunchArg::ofBuffer(vin),
                LaunchArg::ofBuffer(vout), LaunchArg::ofBuffer(vpart)});
      s.launch("norm", grid(kNormSlots), block,
               {LaunchArg::ofInt(parts), LaunchArg::ofInt(kNormSlots),
                LaunchArg::ofBuffer(vpart), LaunchArg::ofBuffer(vnrm)});
      s.launch("copyback", grid(n), block,
               {LaunchArg::ofInt(n), LaunchArg::ofBuffer(vout),
                LaunchArg::ofBuffer(vin)});
    }
    s.d2h(inHost, vin, n * kElem);
    s.d2h(nrmHost, vnrm, kNormSlots * kElem);
  }

  double referenceSeconds_ = 0;
  std::vector<double> replicaInit_, replicaWantIn_, replicaWantNrm_;
};

// ---- the irregular workloads: seeded banded CSR, inspector-executor --------

constexpr i64 kCsrRows = 65536;
constexpr i64 kCsrHalfBand = 32;
constexpr int kIrregularGpus = 8;

struct Csr {
  std::vector<i64> rowPtr, colIdx;
  std::vector<double> vals;
  i64 nnz() const { return static_cast<i64>(colIdx.size()); }
};

/// Banded structure (fixed); values from the seeded generator.
Csr makeBandedCsr(Rng& rng) {
  Csr a;
  a.rowPtr.reserve(static_cast<std::size_t>(kCsrRows + 1));
  a.rowPtr.push_back(0);
  for (i64 r = 0; r < kCsrRows; ++r) {
    const i64 lo = std::max<i64>(0, r - kCsrHalfBand);
    const i64 hi = std::min<i64>(kCsrRows, r + kCsrHalfBand + 1);
    for (i64 c = lo; c < hi; ++c) {
      a.colIdx.push_back(c);
      a.vals.push_back(rng.uniform() - 0.5);
    }
    a.rowPtr.push_back(a.nnz());
  }
  return a;
}

rt::RuntimeConfig inspectorConfig() {
  rt::RuntimeConfig c = pinnedConfig(kIrregularGpus, ExecutionMode::Functional);
  c.inspectorExecutor = true;
  c.trackSharedCopies = true;
  return c;
}

/// Iterated CSR y = A*x on persistent device buffers, 8 GPUs, Functional,
/// inspector on: every launch after the first hits the inspection cache and
/// the IR interpreter takes most of the host time.
class SpmvInspector final : public Workload {
 public:
  SpmvInspector() : Workload(apps::buildIrregularModule()) {}

  int minPasses() const override { return 4; }

  void pass(Recorder& rec, PassRecord& out) override {
    std::vector<double> y(static_cast<std::size_t>(kCsrRows));
    {
      Session s(rec, inspectorConfig(), model_, module_);
      const i64 n = kCsrRows, nnz = a_.nnz();
      VirtualBuffer* drp = s.malloc((n + 1) * kElem);
      VirtualBuffer* dci = s.malloc(nnz * kElem);
      VirtualBuffer* dva = s.malloc(nnz * kElem);
      VirtualBuffer* dx = s.malloc(n * kElem);
      VirtualBuffer* dy = s.malloc(n * kElem);
      s.h2d(drp, a_.rowPtr.data(), (n + 1) * kElem);
      s.h2d(dci, a_.colIdx.data(), nnz * kElem);
      s.h2d(dva, a_.vals.data(), nnz * kElem);
      s.h2d(dx, x_.data(), n * kElem);
      for (int l = 0; l < kLaunches; ++l)
        s.launch("spmv", grid(), Dim3{apps::kBlock1D, 1, 1},
                 {LaunchArg::ofInt(n), LaunchArg::ofInt(n), LaunchArg::ofInt(nnz),
                  LaunchArg::ofBuffer(drp), LaunchArg::ofBuffer(dci),
                  LaunchArg::ofBuffer(dva), LaunchArg::ofBuffer(dx),
                  LaunchArg::ofBuffer(dy)});
      s.d2h(y.data(), dy, n * kElem);
      s.finish(out, "spmv 8G", referenceSeconds_);
    }
    rec.checkEqual(std::move(y), want_);
  }

 protected:
  rt::RuntimeConfig setupConfig() const override { return inspectorConfig(); }

  void makeInputs(u64 seed) override {
    Rng rng(seed);
    a_ = makeBandedCsr(rng);
    x_ = uniformVector(rng, kCsrRows, -1, 1);
    digest_ = digest(digest(digest_, a_.vals), x_);
    want_.assign(static_cast<std::size_t>(kCsrRows), 0.0);
    apps::refSpmv(a_.rowPtr, a_.colIdx, a_.vals, x_, want_);
  }

  void computeReferences() override {
    sim::Machine m(sim::MachineSpec::k80Node(1), ExecutionMode::TimingOnly);
    const i64 n = kCsrRows, nnz = a_.nnz();
    sim::DevBuffer drp = m.alloc(0, (n + 1) * kElem);
    sim::DevBuffer dci = m.alloc(0, nnz * kElem);
    sim::DevBuffer dva = m.alloc(0, nnz * kElem);
    sim::DevBuffer dx = m.alloc(0, n * kElem);
    sim::DevBuffer dy = m.alloc(0, n * kElem);
    m.copyHostToDevice(drp, 0, nullptr, (n + 1) * kElem);
    m.copyHostToDevice(dci, 0, nullptr, nnz * kElem);
    m.copyHostToDevice(dva, 0, nullptr, nnz * kElem);
    m.copyHostToDevice(dx, 0, nullptr, n * kElem);
    m.synchronizeAll();
    using sim::KernelArg;
    KernelArg args[] = {KernelArg::ofInt(n),      KernelArg::ofInt(n),
                        KernelArg::ofInt(nnz),    KernelArg::ofBuffer(drp),
                        KernelArg::ofBuffer(dci), KernelArg::ofBuffer(dva),
                        KernelArg::ofBuffer(dx),  KernelArg::ofBuffer(dy)};
    for (int l = 0; l < kLaunches; ++l)
      m.launchKernel(0, *module_.find("spmv"),
                     {grid(), Dim3{apps::kBlock1D, 1, 1}}, args);
    m.synchronizeAll();
    m.copyDeviceToHost(nullptr, dy, 0, n * kElem);
    m.synchronizeAll();
    referenceSeconds_ = m.completionTime();
  }

 private:
  static constexpr int kLaunches = 6;
  static Dim3 grid() { return Dim3{ceilDiv(kCsrRows, apps::kBlock1D), 1, 1}; }

  Csr a_;
  std::vector<double> x_, want_;
  double referenceSeconds_ = 0;
};

/// BFS push sweeps over the same banded graph, 8 GPUs, Functional,
/// inspector on, a fresh seeded frontier per sweep: every sweep misses the
/// inspection cache and writes go through a may-access scatter.
class BfsInspector final : public Workload {
 public:
  BfsInspector() : Workload(apps::buildIrregularModule()) {}

  int minPasses() const override { return 10; }

  void pass(Recorder& rec, PassRecord& out) override {
    std::vector<std::vector<double>> next(
        kSweeps, std::vector<double>(static_cast<std::size_t>(kCsrRows), 0.0));
    {
      Session s(rec, inspectorConfig(), model_, module_);
      const i64 n = kCsrRows, nnz = g_.nnz();
      VirtualBuffer* dfr = s.malloc(kFrontier * kElem);
      VirtualBuffer* drp = s.malloc((n + 1) * kElem);
      VirtualBuffer* dci = s.malloc(nnz * kElem);
      VirtualBuffer* dnx = s.malloc(n * kElem);
      s.h2d(drp, g_.rowPtr.data(), (n + 1) * kElem);
      s.h2d(dci, g_.colIdx.data(), nnz * kElem);
      for (std::size_t sw = 0; sw < kSweeps; ++sw) {
        s.h2d(dfr, fronts_[sw].data(), kFrontier * kElem);
        s.h2d(dnx, next[sw].data(), n * kElem);
        s.launch("bfs_push", Dim3{ceilDiv(kFrontier, apps::kBlock1D), 1, 1},
                 Dim3{apps::kBlock1D, 1, 1},
                 {LaunchArg::ofInt(kFrontier), LaunchArg::ofInt(n),
                  LaunchArg::ofInt(nnz), LaunchArg::ofBuffer(dfr),
                  LaunchArg::ofBuffer(drp), LaunchArg::ofBuffer(dci),
                  LaunchArg::ofBuffer(dnx)});
        s.d2h(next[sw].data(), dnx, n * kElem);
      }
      s.finish(out, "bfs 8G", referenceSeconds_);
    }
    for (std::size_t sw = 0; sw < kSweeps; ++sw)
      rec.checkEqual(std::move(next[sw]), want_[sw]);
  }

 protected:
  rt::RuntimeConfig setupConfig() const override { return inspectorConfig(); }

  void makeInputs(u64 seed) override {
    Rng rng(seed);
    g_ = makeBandedCsr(rng);
    fronts_.assign(kSweeps, {});
    want_.assign(kSweeps, {});
    for (std::size_t sw = 0; sw < kSweeps; ++sw) {
      fronts_[sw].resize(static_cast<std::size_t>(kFrontier));
      for (i64& u : fronts_[sw]) u = rng.range(0, kCsrRows - 1);
      digest_ = digest(digest_, fronts_[sw]);
      want_[sw].assign(static_cast<std::size_t>(kCsrRows), 0.0);
      apps::refBfsPush(g_.rowPtr, g_.colIdx, fronts_[sw], want_[sw]);
    }
  }

  void computeReferences() override {
    sim::Machine m(sim::MachineSpec::k80Node(1), ExecutionMode::TimingOnly);
    const i64 n = kCsrRows, nnz = g_.nnz();
    sim::DevBuffer dfr = m.alloc(0, kFrontier * kElem);
    sim::DevBuffer drp = m.alloc(0, (n + 1) * kElem);
    sim::DevBuffer dci = m.alloc(0, nnz * kElem);
    sim::DevBuffer dnx = m.alloc(0, n * kElem);
    m.copyHostToDevice(drp, 0, nullptr, (n + 1) * kElem);
    m.copyHostToDevice(dci, 0, nullptr, nnz * kElem);
    m.synchronizeAll();
    using sim::KernelArg;
    KernelArg args[] = {KernelArg::ofInt(kFrontier), KernelArg::ofInt(n),
                        KernelArg::ofInt(nnz),       KernelArg::ofBuffer(dfr),
                        KernelArg::ofBuffer(drp),    KernelArg::ofBuffer(dci),
                        KernelArg::ofBuffer(dnx)};
    for (std::size_t sw = 0; sw < kSweeps; ++sw) {
      m.copyHostToDevice(dfr, 0, nullptr, kFrontier * kElem);
      m.copyHostToDevice(dnx, 0, nullptr, n * kElem);
      m.synchronizeAll();
      m.launchKernel(0, *module_.find("bfs_push"),
                     {Dim3{ceilDiv(kFrontier, apps::kBlock1D), 1, 1},
                      Dim3{apps::kBlock1D, 1, 1}},
                     args);
      m.synchronizeAll();
      m.copyDeviceToHost(nullptr, dnx, 0, n * kElem);
      m.synchronizeAll();
    }
    referenceSeconds_ = m.completionTime();
  }

 private:
  static constexpr std::size_t kSweeps = 8;
  static constexpr i64 kFrontier = 4096;

  Csr g_;
  std::vector<std::vector<i64>> fronts_;
  std::vector<std::vector<double>> want_;
  double referenceSeconds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "paper_timing") return std::make_unique<PaperTiming>();
  if (name == "iterative_planned") return std::make_unique<IterativePlanned>();
  if (name == "spmv_inspector") return std::make_unique<SpmvInspector>();
  if (name == "bfs_inspector") return std::make_unique<BfsInspector>();
  throw Error("perfbench: unknown workload '" + name + "'");
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "paper_timing", "iterative_planned", "spmv_inspector", "bfs_inspector"};
  return names;
}

}  // namespace polypart::perfbench
