#pragma once

// Internal to the benchmark: the per-run bookkeeping shared by the workloads
// (workloads.cpp) and the run loop (run.cpp).

#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyze.h"
#include "perfbench/harness/measure.h"
#include "rt/runtime.h"

namespace polypart::perfbench {

/// A runtime configuration with every knob pinned, so POLYPART_* environment
/// defaults cannot change what a workload measures.  Serial engine: no
/// resolution threads, no pipeline.
rt::RuntimeConfig pinnedConfig(int gpus, sim::ExecutionMode mode);

/// One distinct launch of a pass, kept for the enumeration replay.
struct LaunchSignature {
  rt::RuntimeConfig config;
  const analysis::ApplicationModel* model = nullptr;
  const ir::Module* module = nullptr;
  std::string kernel;
  ir::LaunchConfig launch;
  std::vector<i64> scalars;
  long long count = 0;
};

/// Shared by every Session of a run: operation counts, launch samples, the
/// tracer of a traced pass, and the launch signatures of the first pass.
struct Recorder {
  bool timing = false;            // append per-launch wall samples
  bool recordSignatures = false;  // first timed pass only
  bool corruptNextCheck = false;
  trace::Tracer* tracer = nullptr;
  long long attempted = 0;
  long long failed = 0;
  std::vector<double> launchMicros;
  std::map<std::string, LaunchSignature> signatures;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  /// Bit-for-bit output check.
  void checkEqual(std::vector<double> got, const std::vector<double>& want);
};

/// Everything one pass measured, summed over the pass's runs.
struct PassRecord {
  double hostSeconds = 0;
  double simSeconds = 0;
  std::vector<std::pair<std::string, double>> speedups;
  rt::RuntimeStats stats;
  sim::MachineStats machine;
  int peerFanoutMax = 0;
};

/// One partitioned run inside a pass: a Runtime plus the calls the host
/// program makes on it, each counted and launches timed.
class Session {
 public:
  Session(Recorder& rec, rt::RuntimeConfig config,
          const analysis::ApplicationModel& model, const ir::Module& module);

  rt::VirtualBuffer* malloc(i64 bytes) { return rt_.malloc(bytes); }

  void h2d(rt::VirtualBuffer* dst, const void* src, i64 bytes) {
    ++rec_.attempted;
    rt_.memcpy(dst, src, bytes, rt::MemcpyKind::HostToDevice);
  }

  void d2h(void* dst, rt::VirtualBuffer* src, i64 bytes) {
    ++rec_.attempted;
    rt_.memcpy(dst, src, bytes, rt::MemcpyKind::DeviceToHost);
  }

  void launch(const std::string& kernel, const ir::Dim3& grid,
              const ir::Dim3& block, std::initializer_list<rt::LaunchArg> args) {
    ++rec_.attempted;
    const std::span<const rt::LaunchArg> span(args.begin(), args.size());
    const Clock::time_point t0 = Clock::now();
    rt_.launch(kernel, grid, block, span);
    const double micros = secondsSince(t0) * 1e6;
    if (rec_.timing) rec_.launchMicros.push_back(micros);
    if (rec_.recordSignatures) recordSignature(kernel, grid, block, span);
  }

  /// Drains the machine and folds this run into `pass`; `referenceSeconds`
  /// is the single-device time of the same host program.
  void finish(PassRecord& pass, const std::string& label,
              double referenceSeconds);

 private:
  void recordSignature(const std::string& kernel, const ir::Dim3& grid,
                       const ir::Dim3& block, std::span<const rt::LaunchArg> args);

  Recorder& rec_;
  rt::RuntimeConfig config_;
  const analysis::ApplicationModel& model_;
  const ir::Module& module_;
  rt::Runtime rt_;
  Clock::time_point start_;
};

/// A benchmark workload: a host program over one device module, its inputs
/// and references.
class Workload {
 public:
  explicit Workload(ir::Module module) : module_(std::move(module)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One set-up: analysis of the module, then construction of the
  /// workload's runtime.  Returns {analyze seconds, construct seconds}.
  std::pair<double, double> setupOnce() const;

  /// Analyzes the module, generates the inputs from `seed`, and computes
  /// the single-device reference times (all outside the timed phase).
  void prepare(u64 seed);

  /// Functional replica of a TimingOnly launch sequence, checked against the
  /// CPU reference (the Functional workloads check inside pass()).
  virtual void replica(Recorder&) {}
  virtual void pass(Recorder& rec, PassRecord& out) = 0;
  /// Passes every run completes, however short its time budget.
  virtual int minPasses() const = 0;
  u64 inputDigest() const { return digest_; }

 protected:
  virtual rt::RuntimeConfig setupConfig() const = 0;
  virtual void makeInputs(u64 seed) = 0;
  virtual void computeReferences() = 0;

  ir::Module module_;
  analysis::ApplicationModel model_;
  u64 digest_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

/// The workload called `name`; throws Error for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name);

}  // namespace polypart::perfbench
