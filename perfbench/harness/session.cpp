#include "perfbench/harness/session.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"

namespace polypart::perfbench {

namespace {

analysis::AnalysisOptions pinnedAnalysis() {
  analysis::AnalysisOptions o;
  o.allowMayAccess = true;
  return o;
}

void addStats(rt::RuntimeStats& into, const rt::RuntimeStats& s) {
  into.launches += s.launches;
  into.rangesResolved += s.rangesResolved;
  into.logicalRowsResolved += s.logicalRowsResolved;
  into.trackerSegmentsVisited += s.trackerSegmentsVisited;
  into.peerCopies += s.peerCopies;
  into.sharedCopyHits += s.sharedCopyHits;
  into.enumCacheHits += s.enumCacheHits;
  into.enumCacheMisses += s.enumCacheMisses;
  into.enumCacheEvictions += s.enumCacheEvictions;
  into.transfersMerged += s.transfersMerged;
  into.broadcastChains += s.broadcastChains;
  into.bytesSavedByDedup += s.bytesSavedByDedup;
  into.planActivations += s.planActivations;
  into.planDivergences += s.planDivergences;
  into.plannedLaunches += s.plannedLaunches;
  into.prefetchCopies += s.prefetchCopies;
  into.bytesPrefetched += s.bytesPrefetched;
  into.bytesElided += s.bytesElided;
  into.prefetchHits += s.prefetchHits;
  into.mayAccessLaunches += s.mayAccessLaunches;
  into.inspectorRuns += s.inspectorRuns;
  into.inspectorCacheHits += s.inspectorCacheHits;
  into.inspectorCacheMisses += s.inspectorCacheMisses;
  into.inspectorCacheInvalidations += s.inspectorCacheInvalidations;
  into.inspectedElements += s.inspectedElements;
}

void addMachine(sim::MachineStats& into, const sim::MachineStats& s) {
  into.apiCalls += s.apiCalls;
  into.kernelLaunches += s.kernelLaunches;
  into.transfers += s.transfers;
  into.bytesHostToDevice += s.bytesHostToDevice;
  into.bytesDeviceToHost += s.bytesDeviceToHost;
  into.bytesPeerToPeer += s.bytesPeerToPeer;
  into.kernelBusySeconds += s.kernelBusySeconds;
  into.transferBusySeconds += s.transferBusySeconds;
}

rt::RuntimeConfig withTracer(rt::RuntimeConfig c, trace::Tracer* t) {
  c.tracer = t;
  return c;
}

}  // namespace

rt::RuntimeConfig pinnedConfig(int gpus, sim::ExecutionMode mode) {
  rt::RuntimeConfig c;
  c.numGpus = gpus;
  c.mode = mode;
  c.machine = sim::MachineSpec::k80Node(gpus);
  c.enumeratorTier = codegen::EnumTier::Interpret;
  c.dataflowPlanning = false;
  c.allowRepartitioning = false;
  c.inspectorExecutor = false;
  c.resolutionThreads = 0;
  c.pipelineDepth = 0;
  return c;
}

void Recorder::checkEqual(std::vector<double> got, const std::vector<double>& want) {
  if (corruptNextCheck && !got.empty()) {
    u64 bits = 0;
    std::memcpy(&bits, &got[got.size() / 2], sizeof bits);
    bits ^= 1;
    std::memcpy(&got[got.size() / 2], &bits, sizeof bits);
    corruptNextCheck = false;
  }
  check(got.size() == want.size() &&
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0);
}

Session::Session(Recorder& rec, rt::RuntimeConfig config,
                 const analysis::ApplicationModel& model, const ir::Module& module)
    : rec_(rec),
      config_(withTracer(std::move(config), rec.tracer)),
      model_(model),
      module_(module),
      rt_(config_, model, module),
      start_(Clock::now()) {}

void Session::finish(PassRecord& pass, const std::string& label,
                     double referenceSeconds) {
  rt_.deviceSynchronize();
  pass.hostSeconds += secondsSince(start_);
  const double sim = rt_.elapsedSeconds();
  pass.simSeconds += sim;
  pass.speedups.emplace_back(label, referenceSeconds / sim);
  addStats(pass.stats, rt_.stats());
  addMachine(pass.machine, rt_.machineStats());
  for (int src = 0; src < config_.numGpus; ++src) {
    int fanout = 0;
    for (int dst = 0; dst < config_.numGpus; ++dst)
      if (dst != src && rt_.machine().linkBusySeconds(src, dst) > 0) ++fanout;
    pass.peerFanoutMax = std::max(pass.peerFanoutMax, fanout);
  }
}

void Session::recordSignature(const std::string& kernel, const ir::Dim3& grid,
                              const ir::Dim3& block,
                              std::span<const rt::LaunchArg> args) {
  const analysis::KernelModel* km = model_.find(kernel);
  PP_ASSERT(km != nullptr);
  std::vector<i64> scalars;
  for (std::size_t i = 0; i < args.size(); ++i)
    if (!km->params[i].isArray && km->params[i].type == ir::Type::I64)
      scalars.push_back(args[i].scalar.i);
  std::string key = kernel;
  std::vector<i64> words = {config_.numGpus, grid.x, grid.y, grid.z,
                            block.x,         block.y, block.z};
  words.insert(words.end(), scalars.begin(), scalars.end());
  for (i64 v : words) {
    key += ',';
    key += std::to_string(v);
  }
  LaunchSignature& sig = rec_.signatures[key];
  if (sig.count == 0) {
    sig.config = config_;
    sig.config.tracer = nullptr;
    sig.model = &model_;
    sig.module = &module_;
    sig.kernel = kernel;
    sig.launch = ir::LaunchConfig{grid, block};
    sig.scalars = std::move(scalars);
  }
  ++sig.count;
}

std::pair<double, double> Workload::setupOnce() const {
  const Clock::time_point t0 = Clock::now();
  analysis::ApplicationModel model =
      analysis::analyzeModule(module_, pinnedAnalysis());
  const double analyze = secondsSince(t0);
  const Clock::time_point t1 = Clock::now();
  rt::Runtime runtime(setupConfig(), std::move(model), module_);
  return {analyze, secondsSince(t1)};
}

void Workload::prepare(u64 seed) {
  model_ = analysis::analyzeModule(module_, pinnedAnalysis());
  makeInputs(seed);
  computeReferences();
}

}  // namespace polypart::perfbench
