#include "rt/runtime.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>

#include "pset/fm_internal.h"
#include "rt/checkpoint.h"
#include "rt/dataflow_plan.h"
#include "rt/transfer_plan.h"
#include "support/env.h"
#include "support/error.h"
#include "support/trace.h"

namespace polypart::rt {

using analysis::ArrayModel;
using analysis::KernelModel;
using analysis::PartitionStrategy;
using codegen::Enumerator;
using codegen::PartitionTuple;
using ir::Dim3;
using ir::GridPartition;
using ir::LaunchConfig;

codegen::EnumTier defaultEnumeratorTier() {
  std::optional<std::string> v = env::value("POLYPART_ENUMERATOR_TIER");
  if (!v) return codegen::EnumTier::Interpret;
  try {
    return codegen::enumTierFromString(*v);
  } catch (const Error&) {
    throw Error("invalid POLYPART_ENUMERATOR_TIER value '" + *v +
                "' (accepted: interpret, bytecode, specialized)");
  }
}

bool defaultDataflowPlanning() {
  return env::flag("POLYPART_DATAFLOW_PLANNING", false);
}

bool defaultAllowRepartitioning() {
  return env::flag("POLYPART_ALLOW_REPARTITIONING", false);
}

bool defaultInspectorExecutor() {
  return env::flag("POLYPART_INSPECTOR_EXECUTOR", false);
}

namespace {

double wallSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

std::string paramDesc(bool isArray, ir::Type type) {
  return std::string(isArray ? "array of " : "scalar ") + ir::typeName(type);
}

/// Models may come from disk (pass 2 of the compiler driver), so the
/// constructor checks that `km` describes `k` before any launch indexes the
/// argument list through it.
void checkModelMatchesKernel(const KernelModel& km, const ir::Kernel& k) {
  const std::string where = "model of kernel '" + km.kernel + "': ";
  if (km.params.size() != k.numParams())
    throw Error(where + "has " + std::to_string(km.params.size()) +
                " params, the kernel has " + std::to_string(k.numParams()));
  for (std::size_t i = 0; i < k.numParams(); ++i) {
    const analysis::ParamInfo& mp = km.params[i];
    const ir::Param& kp = k.param(i);
    if (mp.isArray != kp.isArray || mp.type != kp.type)
      throw Error(where + "argument " + std::to_string(i) + " ('" + kp.name +
                  "') is a " + paramDesc(mp.isArray, mp.type) +
                  " in the model but a " + paramDesc(kp.isArray, kp.type) +
                  " in the kernel");
  }
  std::vector<bool> seen(k.numParams(), false);
  for (const ArrayModel& a : km.arrays) {
    const std::string arg =
        "array '" + a.name + "' names argument " + std::to_string(a.argIndex);
    if (a.argIndex >= k.numParams())
      throw Error(where + arg + ", but the kernel has " +
                  std::to_string(k.numParams()) + " arguments");
    if (!k.param(a.argIndex).isArray)
      throw Error(where + arg + ", which is the scalar '" +
                  k.param(a.argIndex).name + "'");
    if (seen[a.argIndex])
      throw Error(where + arg + ", which another array entry already names");
    seen[a.argIndex] = true;
  }
}

/// The distinct element indices one argument's observed accesses touched,
/// kept in a bit vector over its extent: the raw access stream is
/// deduplicated as it arrives, and the runs come out in ascending order
/// without sorting it.  Shared by the inspection walk and the may-write
/// fold.
class Footprint {
 public:
  explicit Footprint(i64 extent)
      : words_(static_cast<std::size_t>((extent + 63) / 64), 0), extent_(extent) {}

  /// Records element `flat`.  An index outside the extent is skipped: the
  /// bounds check that follows the observer throws on it.
  void add(i64 flat) {
    if (flat < 0 || flat >= extent_) return;
    const std::size_t w = static_cast<std::size_t>(flat >> 6);
    words_[w] |= u64{1} << (flat & 63);
    lo_ = std::min(lo_, w);
    hi_ = std::max(hi_, w + 1);
  }

  /// Appends the maximal runs of recorded elements to `out` as half-open
  /// ranges in ascending order, returns how many distinct elements were
  /// recorded, and clears the set.
  i64 drain(std::vector<std::pair<i64, i64>>& out) {
    i64 distinct = 0;
    i64 open = -1;  // first element of the run in progress
    for (std::size_t w = lo_; w < hi_; ++w) {
      const u64 bits = std::exchange(words_[w], 0);
      distinct += std::popcount(bits);
      const i64 base = static_cast<i64>(w) * 64;
      int pos = 0;
      while (pos < 64) {
        if (open < 0) {
          if ((bits >> pos) == 0) break;
          pos += std::countr_zero(bits >> pos);
          open = base + pos;
        } else {
          const u64 gaps = ~bits >> pos;
          if (gaps == 0) break;
          pos += std::countr_zero(gaps);
          out.emplace_back(open, base + pos);
          open = -1;
        }
      }
    }
    if (open >= 0) out.emplace_back(open, static_cast<i64>(hi_) * 64);
    lo_ = SIZE_MAX;
    hi_ = 0;
    return distinct;
  }

 private:
  std::vector<u64> words_;
  i64 extent_;
  std::size_t lo_ = SIZE_MAX, hi_ = 0;  // words that may hold set bits
};

}  // namespace

class Runtime::ResolutionTimer {
 public:
  explicit ResolutionTimer(Runtime& rt)
      : rt_(rt), t0_(std::chrono::steady_clock::now()) {
    PP_ASSERT_MSG(!rt_.resolutionWindowOpen_,
                  "overlapping resolution wall-time windows");
    rt_.resolutionWindowOpen_ = true;
  }
  ~ResolutionTimer() {
    rt_.resolutionWindowOpen_ = false;
    rt_.stats_.resolutionWallSeconds += wallSeconds(t0_);
  }

  ResolutionTimer(const ResolutionTimer&) = delete;
  ResolutionTimer& operator=(const ResolutionTimer&) = delete;

 private:
  Runtime& rt_;
  std::chrono::steady_clock::time_point t0_;
};

Runtime::Runtime(RuntimeConfig config, analysis::ApplicationModel model,
                 const ir::Module& kernels)
    : config_(config), model_(std::move(model)) {
  // Resolution has one serial engine; the two knobs stay declared only so
  // existing configs compile, and any other value is a configuration error.
  if (config_.resolutionThreads != 0)
    throw Error("RuntimeConfig::resolutionThreads must be 0 (got " +
                std::to_string(config_.resolutionThreads) +
                "); resolution always runs serially");
  if (config_.pipelineDepth != 0)
    throw Error("RuntimeConfig::pipelineDepth must be 0 (got " +
                std::to_string(config_.pipelineDepth) +
                "); launches always run synchronously");
  // FM-memoization telemetry baseline: taken before any enumerator is built
  // so this runtime's construction-time projections count toward its sample.
  const pset::FmMemoCounters fmBase = pset::fmMemoCounters();
  fmBaseHits_ = fmBase.hits;
  fmBaseMisses_ = fmBase.misses;
  fmBaseEvictions_ = fmBase.evictions;
  config_.machine.numDevices = config_.numGpus;
  machine_ = std::make_unique<sim::Machine>(config_.machine, config_.mode);
  if (config_.dataflowPlanning && config_.enableDependencyResolution &&
      config_.enableTransfers)
    planner_ = std::make_unique<DataflowPlanner>(
        config_.numGpus, [this](const LaunchSignature& sig) {
          const KernelEntry& ke = entry(sig.model->kernel);
          std::vector<AccessFootprint> out;
          out.reserve(ke.enumerators.size());
          for (const Enumerator& e : ke.enumerators) {
            AccessFootprint& f = out.emplace_back();
            f.argIndex = e.argIndex();
            f.isWrite = e.isWrite();
            for (int gpu = 0; gpu < config_.numGpus; ++gpu)
              f.perGpu.push_back(footprintOn(ke, e, sig, gpu, ke.partitioning));
          }
          return out;
        });
  machine_->setTracer(config_.tracer);

  // Per-kernel partitioning (Section 7) and enumerator generation
  // (Section 6).
  for (const KernelModel& km : model_.kernels) {
    ir::KernelPtr k = kernels.find(km.kernel);
    if (k == nullptr)
      throw Error("model references kernel '" + km.kernel +
                  "', which the module does not define");
    checkModelMatchesKernel(km, *k);
    KernelEntry ke;
    ke.model = &km;
    ke.partitioned = ir::partitionKernel(*k);
    ke.partitioning = Partitioning::even(config_.numGpus);
    ke.enumerators = codegen::buildEnumerators(km);
    for (Enumerator& e : ke.enumerators) {
      e.coalesce = config_.coalesceEnumerators;
      e.tier = config_.enumeratorTier;
    }
    // May-access tier metadata.  RMW may-args are excluded from the
    // inspectable set: the pre-partition gather already moves their whole
    // extent.
    for (const ArrayModel& a : km.arrays) {
      if (a.writeMayAccess) {
        ke.mayWriteArgs.push_back(a.argIndex);
        if (a.hasReads()) ke.rmwMayArgs.push_back(a.argIndex);
      } else if (a.readMayAccess) {
        ke.mayReadArgs.push_back(a.argIndex);
      }
    }
    ke.enumIsMayRead.assign(ke.enumerators.size(), 0);
    for (std::size_t ei = 0; ei < ke.enumerators.size(); ++ei) {
      const Enumerator& e = ke.enumerators[ei];
      if (e.isWrite()) continue;
      if (std::find(ke.mayReadArgs.begin(), ke.mayReadArgs.end(),
                    e.argIndex()) != ke.mayReadArgs.end())
        ke.enumIsMayRead[ei] = 1;
    }
    kernels_.emplace(km.kernel, std::move(ke));
  }
}

Runtime::~Runtime() = default;

const Runtime::KernelEntry& Runtime::entry(const std::string& name) const {
  auto it = kernels_.find(name);
  PP_ASSERT_MSG(it != kernels_.end(), "launch of unknown kernel");
  return it->second;
}

Runtime::KernelEntry& Runtime::entry(const std::string& name) {
  auto it = kernels_.find(name);
  PP_ASSERT_MSG(it != kernels_.end(), "launch of unknown kernel");
  return it->second;
}

const Runtime::LaunchPlan* Runtime::resolvePlan(KernelEntry& ke,
                                                const PartitionTuple& tuple,
                                                const LaunchConfig& cfg,
                                                std::span<const i64> scalars,
                                                bool& wasHit) {
  if (!config_.enableEnumerationCache) return nullptr;
  codegen::EnumerationKey key = codegen::EnumerationKey::of(tuple, cfg, scalars);
  auto it = ke.planCache.find(key);
  if (it != ke.planCache.end()) {
    wasHit = true;
    ++stats_.enumCacheHits;
    trace::instant(config_.tracer, "cache", "plan-hit");
    return &it->second;
  }
  wasHit = false;
  ++stats_.enumCacheMisses;
  trace::instant(config_.tracer, "cache", "plan-miss");
  if (ke.planCache.size() >= kEnumerationCachePlansPerKernel) {
    ke.planCache.erase(ke.planCacheOrder.front());
    ke.planCacheOrder.pop_front();
    ++stats_.enumCacheEvictions;
    trace::instant(config_.tracer, "cache", "plan-evict");
  }
  LaunchPlan plan;
  plan.reserve(ke.enumerators.size());
  for (const Enumerator& e : ke.enumerators)
    plan.push_back(e.materialize(tuple, cfg, scalars));
  auto [pos, inserted] = ke.planCache.emplace(std::move(key), std::move(plan));
  PP_ASSERT(inserted);
  ke.planCacheOrder.push_back(pos->first);
  return &pos->second;
}

ElemRanges Runtime::footprintOn(const KernelEntry& ke, const Enumerator& e,
                                const LaunchSignature& sig, int gpu,
                                const Partitioning& part) const {
  GridPartition gp = partitionWith(*ke.model, sig.cfg.grid, gpu, part);
  if (gp.blockCount() == 0) return {};
  return e
      .materialize(PartitionTuple::fromBlocks(gp, sig.cfg.block), sig.cfg,
                   sig.scalars)
      .ranges;
}

const ir::Kernel& Runtime::partitionedKernel(const std::string& name) const {
  return *entry(name).partitioned;
}

VirtualBuffer* Runtime::malloc(i64 bytes) {
  // A size_t size above INT64_MAX arrives here negative.
  if (bytes < 0)
    throw Error("malloc of " + std::to_string(bytes) +
                " bytes: the size must not be negative");
  // Host mirrors, tracker walks, and the H2D split all work in whole
  // elements; a trailing partial element would fall outside them.
  if (bytes % kElemBytes != 0)
    throw Error("malloc of " + std::to_string(bytes) +
                " bytes: virtual buffers hold " + std::to_string(kElemBytes) +
                "-byte elements, so the size must be a multiple of " +
                std::to_string(kElemBytes));
  std::vector<sim::DevBuffer> instances;
  instances.reserve(static_cast<std::size_t>(config_.numGpus));
  for (int d = 0; d < config_.numGpus; ++d)
    instances.push_back(machine_->deviceFailed(d) ? sim::DevBuffer{}
                                                  : machine_->alloc(d, bytes));
  buffers_.push_back(std::unique_ptr<VirtualBuffer>(
      new VirtualBuffer(bytes, std::move(instances))));
  VirtualBuffer* vb = buffers_.back().get();
  // The heap may hand back the address of a previously freed VirtualBuffer;
  // a stale freed record for it would misdiagnose a later bad free of this
  // live buffer as a double free of the old one.
  freedBuffers_.erase(
      std::remove(freedBuffers_.begin(), freedBuffers_.end(), vb),
      freedBuffers_.end());
  return vb;
}

void Runtime::free(VirtualBuffer* buf) {
  PP_ASSERT_MSG(buf != nullptr, "free of null virtual buffer");
  for (auto it = buffers_.begin(); it != buffers_.end(); ++it) {
    if (it->get() == buf) {
      // Every recorded launch signature that uses the buffer is forgotten:
      // a reallocation can reuse its address (and an inspected content
      // version), which must not match a stale record.  The planner's
      // history is dropped whole.
      if (planner_ != nullptr) planner_->reset();
      for (auto& [name, ke] : kernels_) {
        std::erase_if(ke.inspections,
                      [&](const std::shared_ptr<const InspectedFootprints>& f) {
                        return f->sig.uses(buf);
                      });
        if (ke.lastLaunch && ke.lastLaunch->uses(buf)) ke.lastLaunch.reset();
      }
      for (const sim::DevBuffer& b : buf->instances_)
        if (b.valid()) machine_->free(b);
      freedBuffers_.push_back(buf);
      // Bounded diagnostic history: drop the oldest records beyond the cap
      // (the diagnosis below degrades gracefully for dropped entries — a
      // stale double free reports as a foreign-pointer free).
      constexpr std::size_t kMaxFreedRecords = 256;
      if (freedBuffers_.size() > kMaxFreedRecords)
        freedBuffers_.erase(freedBuffers_.begin());
      buffers_.erase(it);
      return;
    }
  }
  // Not live: diagnose which contract was broken before dying.
  PP_ASSERT_MSG(
      std::find(freedBuffers_.begin(), freedBuffers_.end(), buf) ==
          freedBuffers_.end(),
      "double free of virtual buffer");
  PP_ASSERT_MSG(false, "free of a pointer this runtime never allocated");
}

void Runtime::checkLive(const VirtualBuffer* buf) const {
  for (const std::unique_ptr<VirtualBuffer>& b : buffers_)
    if (b.get() == buf) return;
  PP_ASSERT_MSG(
      std::find(freedBuffers_.begin(), freedBuffers_.end(), buf) ==
          freedBuffers_.end(),
      "use of a freed virtual buffer");
  PP_ASSERT_MSG(false, "use of a foreign pointer as a virtual buffer");
}

void Runtime::memcpy(void* dst, const void* src, i64 bytes, MemcpyKind kind) {
  // Bad counts are the caller's input, not a broken invariant: reject them
  // before any machine or tracker state moves.  A size_t count above
  // INT64_MAX arrives here negative.
  if (bytes < 0)
    throw Error("memcpy of " + std::to_string(bytes) +
                " bytes: the count must not be negative");
  auto checkCount = [bytes](const VirtualBuffer* vb, const char* what) {
    if (bytes > vb->bytes())
      throw Error(std::string(what) + " memcpy of " + std::to_string(bytes) +
                  " bytes exceeds the " + std::to_string(vb->bytes()) +
                  "-byte virtual buffer");
  };
  trace::Span span(config_.tracer, "runtime", "memcpy", {}, {{"bytes", bytes}});
  switch (kind) {
    case MemcpyKind::HostToHost:
      machine_->chargeApiCall();
      if (machine_->mode() == sim::ExecutionMode::Functional && dst && src)
        std::memcpy(dst, src, static_cast<std::size_t>(bytes));
      return;

    case MemcpyKind::HostToDevice: {
      // 1:n movement (Section 8.2): "data is distributed in a predefined
      // pattern", a linear split over the live devices; any mismatch with
      // the kernels' read patterns is corrected by the dependency
      // resolution before the next launch.
      auto* vb = static_cast<VirtualBuffer*>(dst);
      checkLive(vb);
      checkCount(vb, "host-to-device");
      // Kernels still writing this buffer must drain before the scatter
      // overwrites the device instances; the post-copy barrier alone would
      // let the copies race with in-flight kernels in the timing model.
      machine_->synchronizeAll();
      // Scatter only across live devices (identical arithmetic to scattering
      // across all of them while none has failed).
      std::vector<int> targets;
      targets.reserve(static_cast<std::size_t>(config_.numGpus));
      for (int d = 0; d < config_.numGpus; ++d)
        if (!machine_->deviceFailed(d)) targets.push_back(d);
      PP_ASSERT_MSG(!targets.empty(), "host-to-device copy with no live device");
      const int g = static_cast<int>(targets.size());
      const i64 elems = bytes / kElemBytes;
      for (int i = 0; i < g; ++i) {
        const int d = targets[static_cast<std::size_t>(i)];
        i64 lo = elems * i / g * kElemBytes;
        i64 hi = i + 1 == g ? bytes : elems * (i + 1) / g * kElemBytes;
        if (lo >= hi) continue;
        // src is null in TimingOnly mode; don't offset the null pointer.
        machine_->copyHostToDevice(vb->instances_[static_cast<std::size_t>(d)], lo,
                                   src ? static_cast<const char*>(src) + lo : nullptr,
                                   hi - lo);
        trace::instant(config_.tracer, "transfer", "h2d-copy",
                       {{"dst", d}, {"bytes", hi - lo}});
        vb->tracker_.update(lo, hi, d);
      }
      machine_->synchronizeAll();
      return;
    }

    case MemcpyKind::DeviceToHost: {
      // n:1 movement: gather each segment from the GPU the tracker records
      // as owning its most recent copy (Section 8.2).
      auto* vb = static_cast<VirtualBuffer*>(const_cast<void*>(src));
      checkLive(vb);
      checkCount(vb, "device-to-host");
      machine_->synchronizeAll();  // kernels producing the data must finish
      vb->tracker_.query(0, bytes, [&](i64 b, i64 e, Owner owner, u64) {
        if (owner < 0) return;  // never written: leave host bytes untouched
        machine_->copyDeviceToHost(
            dst ? static_cast<char*>(dst) + b : nullptr,
            vb->instances_[static_cast<std::size_t>(owner)], b, e - b);
        trace::instant(config_.tracer, "transfer", "d2h-copy",
                       {{"src", owner}, {"bytes", e - b}});
      });
      machine_->synchronizeAll();
      return;
    }

    case MemcpyKind::DeviceToDevice:
      // Duplicated device data has no equivalent in the partitioned model
      // (Section 8.2: "currently not supported").
      throw UnsupportedOperationError(
          "device-to-device memcpy is not supported by the partitioned runtime");
  }
}

void Runtime::deviceSynchronize() {
  machine_->synchronizeAll();
}

double Runtime::elapsedSeconds() const { return machine_->completionTime(); }

GridPartition Runtime::partitionFor(const KernelModel& model, const Dim3& grid,
                                    int gpu) const {
  auto it = kernels_.find(model.kernel);
  if (it != kernels_.end())
    return partitionWith(model, grid, gpu, it->second.partitioning);
  // A model this runtime does not manage (test helper usage): even split.
  return partitionWith(model, grid, gpu, Partitioning::even(config_.numGpus));
}

GridPartition Runtime::partitionWith(const KernelModel& model, const Dim3& grid,
                                     int gpu, const Partitioning& part) {
  PP_ASSERT(gpu >= 0 && static_cast<std::size_t>(gpu) < part.weights.size());
  // Weighted generalization of the paper's even block split: device d covers
  // [extent * prefix(d) / total, extent * (prefix(d) + w(d)) / total).
  // All-equal weights reduce to the seed's extent*gpu/g arithmetic exactly.
  const i64 total = part.totalWeight();
  i64 pre = 0;
  for (int d = 0; d < gpu; ++d) pre += part.weights[static_cast<std::size_t>(d)];
  const i64 w = part.weights[static_cast<std::size_t>(gpu)];
  GridPartition p{{0, 0, 0}, grid};
  auto chunk = [&](i64 extent, i64& lo, i64& hi) {
    lo = extent * pre / total;
    hi = extent * (pre + w) / total;
  };
  switch (model.strategy) {
    case PartitionStrategy::SplitX: chunk(grid.x, p.lo.x, p.hi.x); break;
    case PartitionStrategy::SplitY: chunk(grid.y, p.lo.y, p.hi.y); break;
    case PartitionStrategy::SplitZ: chunk(grid.z, p.lo.z, p.hi.z); break;
  }
  return p;
}

std::unique_ptr<TransferPlan> Runtime::makeTransferPlan() const {
  if (!config_.transferScheduling || !config_.enableTransfers) return nullptr;
  // Chaining sources a copy from a replica instead of the owner, which is
  // exactly the reuse the sharer bitmap legitimizes; without it, replicas
  // are not tracked and the plan keeps every copy on its owner link.
  return std::make_unique<TransferPlan>(
      /*chainBroadcasts=*/config_.trackSharedCopies);
}

void Runtime::issueTransferPlan(TransferPlan& plan) {
  trace::Span span(config_.tracer, "runtime", "schedule-transfers", {},
                   {{"decisions", static_cast<i64>(plan.recordCount())}});
  const TransferPlanStats& ps = plan.issue(*machine_, config_.tracer);
  stats_.peerCopies += ps.issued;
  stats_.transfersMerged += ps.merged;
  stats_.broadcastChains += ps.chains;
  stats_.bytesSavedByDedup += ps.bytesSaved;
}

void Runtime::issuePrefetches(const LaunchSignature& sig, std::size_t step,
                              std::vector<double> kernelDone) {
  const std::vector<FlowEdge>& edges = planner_->edgesFor(step);
  if (edges.empty()) return;
  ResolutionTimer timer(*this);
  trace::Span span(config_.tracer, "runtime", "prefetch-flows", {},
                   {{"edges", static_cast<i64>(edges.size())}});

  // No broadcast chaining: prefetch replicas are sharer-tracked, but flow
  // edges are already per-destination.
  TransferPlan plan;
  plan.markPrefetch();
  plan.setSrcFloors(std::move(kernelDone));

  // Clip every planned range against the live tracker: only sub-segments
  // whose current owner is the planned source — and that the destination
  // does not already share — are copied.  Any divergence from the plan
  // (host writes, owners other than the planned one) silently degrades to
  // the reactive path, which is what keeps results byte-identical.
  struct Replica {
    VirtualBuffer* buf;
    i64 begin, end;
    int dst;
  };
  std::vector<Replica> replicas;
  for (const FlowEdge& edge : edges) {
    VirtualBuffer* vb = sig.buffers[edge.argIndex];
    if (vb == nullptr) continue;
    stats_.bytesElided += edge.elidedBytes;
    for (const PlannedTransfer& t : edge.transfers) {
      if (t.src < 0 || t.src >= config_.numGpus) continue;
      // A destination without a sharer bit could not record the replica.
      if (t.dst < 0 || t.dst >= config_.numGpus ||
          SegmentTracker::sharerBit(t.dst) == 0)
        continue;
      for (const auto& [rb, re] : t.byteRanges) {
        vb->tracker_.query(
            rb, re, [&](i64 b, i64 e, Owner owner, u64 sharers) {
              ++stats_.trackerSegmentsVisited;
              if (owner != t.src) return;  // plan/reality divergence: skip
              if ((sharers & SegmentTracker::sharerBit(t.dst)) != 0)
                return;  // already there
              plan.add(vb, t.dst, t.src, b, e);
              replicas.push_back(Replica{vb, b, e, t.dst});
            });
      }
    }
  }

  i64 bytesQueued = 0;
  for (const Replica& r : replicas) bytesQueued += r.end - r.begin;
  if (!plan.empty()) {
    const TransferPlanStats& ps = plan.issue(*machine_, config_.tracer);
    stats_.prefetchCopies += ps.issued;
    stats_.bytesPrefetched += bytesQueued - ps.bytesSaved;
    // Record the replicas after issuing (addSharer mutates the tracker the
    // query above walked); the consumer's reactive resolution will skip
    // exactly these segments via the sharer bit.
    for (const Replica& r : replicas)
      r.buf->tracker_.addSharer(r.begin, r.end, r.dst);
  }

  // Modeled host cost of assembling/issuing the prefetch copies — the same
  // per-row transfer-issue coefficient the reactive path is charged.
  chargeHost(kTransferIssueCostPerRow * static_cast<double>(replicas.size()),
             "prefetch-issue", {"copies", static_cast<i64>(replicas.size())});
}

void Runtime::sampleCacheCounters() {
  const pset::FmMemoCounters fm = pset::fmMemoCounters();
  i64 specHits = 0, specMisses = 0, specEvictions = 0;
  for (const auto& [name, ke] : kernels_)
    for (const Enumerator& e : ke.enumerators) {
      const codegen::Enumerator::SpecCacheCounters c = e.specCacheCounters();
      specHits += c.hits;
      specMisses += c.misses;
      specEvictions += c.evictions;
    }
  stats_.fmMemoHits = fm.hits - fmBaseHits_;
  stats_.fmMemoMisses = fm.misses - fmBaseMisses_;
  stats_.fmMemoEvictions = fm.evictions - fmBaseEvictions_;
  stats_.specProgramHits = specHits;
  stats_.specProgramMisses = specMisses;
  stats_.specProgramEvictions = specEvictions;
}

void Runtime::chargeHost(double cost, const char* what, const trace::Arg& arg) {
  const double simStart = machine_->now();
  machine_->advanceHost(cost);
  trace::simSpan(config_.tracer, "sim.pattern", what, sim::kSimHostTrack,
                 simStart, cost, {arg});
}

void Runtime::issuePeerCopy(VirtualBuffer* vb, int dst, int src, i64 begin,
                            i64 end, i64& count, const char* what) {
  machine_->copyPeer(vb->instances_[static_cast<std::size_t>(dst)], begin,
                     vb->instances_[static_cast<std::size_t>(src)], begin,
                     end - begin);
  ++count;
  trace::instant(config_.tracer, "transfer", what,
                 {{"src", src}, {"dst", dst}, {"bytes", end - begin}});
}

void Runtime::syncReadRanges(VirtualBuffer* vb, int gpu,
                             const ElemRanges& ranges, i64 rows,
                             double rowCost, const char* what,
                             TransferPlan* xferPlan) {
  i64 segments = 0;
  // Built once for the whole list: converting the lambda at every query
  // would allocate once per range.
  const std::function<void(i64, i64, Owner, u64)> visit =
      [&](i64 b, i64 en, Owner owner, u64 sharers) {
        ++segments;
        if (owner == gpu || owner < 0) return;  // up to date / undefined
        // Sharer bits are consulted when either feature maintains them:
        // trackSharedCopies records reactive replicas, the dataflow planner
        // records prefetched ones.
        if ((config_.trackSharedCopies || config_.dataflowPlanning) &&
            (sharers & SegmentTracker::sharerBit(gpu)) != 0) {
          if (config_.trackSharedCopies)
            ++stats_.sharedCopyHits;  // replica already valid here
          else
            ++stats_.prefetchHits;  // prefetch landed: skip the copy
          return;
        }
        if (!config_.enableTransfers) return;
        // Scheduled mode records the decision; the whole phase's plan is
        // merged and issued after the query loops.
        if (xferPlan != nullptr)
          xferPlan->add(vb, gpu, static_cast<int>(owner), b, en);
        else
          issuePeerCopy(vb, gpu, static_cast<int>(owner), b, en,
                        stats_.peerCopies, "peer-copy");
        if (config_.trackSharedCopies) sharerScratch_.emplace_back(b, en);
      };
  for (const auto& [elemB, elemE] : ranges) {
    vb->tracker_.query(elemB * kElemBytes, elemE * kElemBytes, visit);
    // Record the new replicas outside the query traversal (addSharer
    // mutates the tracker).
    for (const auto& [b, en] : sharerScratch_)
      vb->tracker_.addSharer(b, en, gpu);
    sharerScratch_.clear();
  }
  stats_.rangesResolved += static_cast<i64>(ranges.size());
  stats_.trackerSegmentsVisited += segments;
  const double perRow =
      rowCost + (config_.enableTransfers ? kTransferIssueCostPerRow : 0);
  chargeHost(
      kResolutionCostPerArray + perRow * static_cast<double>(rows + segments),
      what, {"gpu", gpu});
}

void Runtime::updateWriteRanges(VirtualBuffer* vb, int gpu,
                                const ElemRanges& ranges, i64 rows,
                                double rowCost, const char* what) {
  for (const auto& [b, en] : ranges)
    vb->tracker_.update(b * kElemBytes, en * kElemBytes, gpu);
  stats_.rangesResolved += static_cast<i64>(ranges.size());
  chargeHost(kResolutionCostPerArray + rowCost * static_cast<double>(rows),
             what, {"gpu", gpu});
}

void Runtime::resolveEnumerators(KernelEntry& ke, const LaunchSignature& sig,
                                 bool writes) {
  ResolutionTimer timer(*this);
  trace::Span span(config_.tracer, "runtime",
                   writes ? "update-trackers" : "sync-reads");
  std::unique_ptr<TransferPlan> xferPlan =
      writes ? nullptr : makeTransferPlan();
  // While the inspector is active, the whole-extent enumerators of
  // inspectable may-read args are skipped: synchronizeMayAccessReads()
  // replaces them with the exact inspected footprints.
  const bool skipMayReads = !writes && inspectorActiveFor(ke);
  for (int gpu = 0; gpu < config_.numGpus; ++gpu) {
    GridPartition gp = partitionFor(*ke.model, sig.cfg.grid, gpu);
    if (gp.blockCount() == 0) continue;
    PartitionTuple tuple = PartitionTuple::fromBlocks(gp, sig.cfg.block);
    bool cached = false;
    const LaunchPlan* plan =
        resolvePlan(ke, tuple, sig.cfg, sig.scalars, cached);
    const double rowCost =
        cached ? kCachedResolutionCostPerRow : kResolutionCostPerRow;

    for (std::size_t ei = 0; ei < ke.enumerators.size(); ++ei) {
      const Enumerator& e = ke.enumerators[ei];
      if (e.isWrite() != writes) continue;
      if (skipMayReads && ke.enumIsMayRead[ei] != 0) continue;
      VirtualBuffer* vb = sig.buffers[e.argIndex()];
      PP_ASSERT(vb != nullptr);
      // Cache on: replay the memoized ranges.  Cache off: enumerate into
      // the reused scratch (the paper's per-launch enumeration).
      const ElemRanges* ranges = &enumScratch_;
      codegen::EnumInfo info;
      if (plan != nullptr) {
        ranges = &(*plan)[ei].ranges;
        info = (*plan)[ei].info;
      } else {
        enumScratch_.clear();
        e.enumerate(tuple, sig.cfg, sig.scalars,
                    [this](i64 b, i64 en) { enumScratch_.emplace_back(b, en); },
                    &info);
      }
      stats_.logicalRowsResolved += info.logicalRows;
      if (writes)
        updateWriteRanges(vb, gpu, *ranges, info.logicalRows, rowCost,
                          "update-writes");
      else
        syncReadRanges(vb, gpu, *ranges, info.logicalRows, rowCost,
                       "resolve-reads", xferPlan.get());
    }
  }
  if (xferPlan != nullptr) issueTransferPlan(*xferPlan);
}

// ---------------------------------------------------------------------------
// May-access tier: inspector–executor (DESIGN.md "May-access tier").
// ---------------------------------------------------------------------------

bool Runtime::inspectorActiveFor(const KernelEntry& ke) const {
  return config_.inspectorExecutor && !ke.mayReadArgs.empty();
}

std::shared_ptr<const Runtime::InspectedFootprints> Runtime::inspectFootprints(
    KernelEntry& ke, const LaunchSignature& sig,
    std::span<const LaunchArg> args) {
  PP_ASSERT_MSG(machine_->mode() == sim::ExecutionMode::Functional,
                "inspection walk without functional buffer contents");
  ResolutionTimer timer(*this);
  trace::Span span(config_.tracer, "runtime", "inspect:", ke.model->kernel);

  // Cache probe.  The launch signature and the weights are the key; the
  // content versions decide freshness.  Content versions move only on
  // Tracker::update(), whose sequence the launch stream alone decides, so
  // hit/miss/invalidation counts are knob-invariant.  Only *read* arguments
  // enter the freshness vector: a write-only output cannot influence the
  // walk, and skipping its version is what lets the repeat launch of an
  // iterative kernel hit the cache despite writing its output.
  std::vector<u64> versions;
  for (std::size_t ai = 0; ai < sig.buffers.size(); ++ai) {
    if (sig.buffers[ai] == nullptr) continue;
    const analysis::ArrayModel* am = ke.model->arrayFor(ai);
    if (am != nullptr && am->hasReads())
      versions.push_back(sig.buffers[ai]->tracker().contentVersion());
  }
  for (auto it = ke.inspections.begin(); it != ke.inspections.end(); ++it) {
    if ((*it)->sig != sig || (*it)->weights != ke.partitioning.weights)
      continue;
    if ((*it)->contentVersions == versions) {
      ++stats_.inspectorCacheHits;
      trace::instant(config_.tracer, "cache", "inspection-hit");
      return *it;
    }
    // Stale: an inspected buffer's content changed since the walk.
    ++stats_.inspectorCacheInvalidations;
    trace::instant(config_.tracer, "cache", "inspection-invalidate");
    ke.inspections.erase(it);
    break;
  }
  ++stats_.inspectorCacheMisses;

  // The walk runs the kernel's address slice (ir::Program::slice): the
  // inspected reads plus what their indices, branches and loop bounds depend
  // on.  Host mirrors are gathered segment-wise from the owning device
  // instances (undefined segments stay zero), and only for the arrays whose
  // contents the slice reads or writes; the others pass their extent alone,
  // which the observed reads' bounds checks need.  The walk runs all
  // partitions on these *shared* mirrors in ascending device order, so
  // stores of earlier partitions are visible to later ones — the same
  // sequential single-device semantics the launch itself reproduces.
  const ir::Program walk =
      ir::Program::compile(*ke.partitioned).slice(ke.mayReadArgs);
  std::vector<std::vector<i64>> mirrors(args.size());
  std::vector<ir::ArgValue> argvals;
  argvals.reserve(args.size() + 6);
  for (std::size_t ai = 0; ai < args.size(); ++ai) {
    const LaunchArg& a = args[ai];
    if (a.buffer == nullptr) {
      argvals.push_back(ir::ArgValue{a.scalar, nullptr, 0});
      continue;
    }
    const i64 extent = a.buffer->bytes() / kElemBytes;
    if (!walk.accessesData(ai)) {
      argvals.push_back(ir::ArgValue{ir::Value{}, nullptr, extent});
      continue;
    }
    std::vector<i64>& m = mirrors[ai];
    m.assign(static_cast<std::size_t>(extent), 0);
    a.buffer->tracker().query(0, a.buffer->bytes(), [&](i64 b, i64 e,
                                                        Owner owner, u64) {
      if (owner < 0) return;
      const char* src = static_cast<const char*>(machine_->bufferData(
          a.buffer->instances_[static_cast<std::size_t>(owner)]));
      std::memcpy(reinterpret_cast<char*>(m.data()) + b, src + b,
                  static_cast<std::size_t>(e - b));
    });
    argvals.push_back(ir::ArgValue::ofBuffer(m.data(), extent));
  }

  auto fp = std::make_shared<InspectedFootprints>();
  fp->sig = sig;
  fp->contentVersions = std::move(versions);
  fp->weights = ke.partitioning.weights;
  fp->ranges.assign(
      ke.mayReadArgs.size(),
      std::vector<ElemRanges>(static_cast<std::size_t>(config_.numGpus)));

  std::vector<int> slotOf(args.size(), -1);
  std::vector<Footprint> seen;
  for (std::size_t i = 0; i < ke.mayReadArgs.size(); ++i) {
    slotOf[ke.mayReadArgs[i]] = static_cast<int>(i);
    seen.emplace_back(argvals[ke.mayReadArgs[i]].numElements);
  }

  i64 accesses = 0;
  ir::AccessObserver observer = [&](std::size_t arg, bool isWrite, i64 flat,
                                    std::span<const i64, 12>) {
    if (isWrite || slotOf[arg] < 0) return;
    ++accesses;
    seen[static_cast<std::size_t>(slotOf[arg])].add(flat);
  };
  for (int gpu = 0; gpu < config_.numGpus; ++gpu) {
    GridPartition gp = partitionFor(*ke.model, sig.cfg.grid, gpu);
    if (gp.blockCount() == 0) continue;
    LaunchConfig partCfg{
        {gp.hi.x - gp.lo.x, gp.hi.y - gp.lo.y, gp.hi.z - gp.lo.z},
        sig.cfg.block};
    std::vector<ir::ArgValue> pargs = argvals;
    for (i64 v : {gp.lo.x, gp.lo.y, gp.lo.z, gp.hi.x, gp.hi.y, gp.hi.z})
      pargs.push_back(ir::ArgValue::ofInt(v));
    walk.run(partCfg, pargs, observer);
    for (std::size_t si = 0; si < seen.size(); ++si)
      seen[si].drain(fp->ranges[si][static_cast<std::size_t>(gpu)]);
  }

  ++stats_.inspectorRuns;
  stats_.inspectedElements += accesses;
  chargeHost(kInspectorCostPerElement * static_cast<double>(accesses),
             "inspect", {"elements", accesses});

  if (ke.inspections.size() >= kInspectionCacheEntriesPerKernel)
    ke.inspections.pop_front();
  ke.inspections.push_back(fp);
  return fp;
}

void Runtime::synchronizeMayAccessReads(KernelEntry& ke,
                                        const LaunchSignature& sig,
                                        const InspectedFootprints& fp) {
  ResolutionTimer timer(*this);
  trace::Span span(config_.tracer, "runtime", "sync-may-reads");
  std::unique_ptr<TransferPlan> xferPlan = makeTransferPlan();
  // The read body of the static reads, driven by the inspected footprints
  // instead of the enumerators; every range is charged as one uncached row
  // (and none is counted in logicalRowsResolved).
  for (int gpu = 0; gpu < config_.numGpus; ++gpu) {
    for (std::size_t si = 0; si < ke.mayReadArgs.size(); ++si) {
      const ElemRanges& ranges = fp.ranges[si][static_cast<std::size_t>(gpu)];
      if (ranges.empty()) continue;
      VirtualBuffer* vb = sig.buffers[ke.mayReadArgs[si]];
      PP_ASSERT(vb != nullptr);
      syncReadRanges(vb, gpu, ranges, static_cast<i64>(ranges.size()),
                     kResolutionCostPerRow, "resolve-may-reads",
                     xferPlan.get());
    }
  }
  if (xferPlan != nullptr) issueTransferPlan(*xferPlan);
}

void Runtime::gatherRmwMayArgs(KernelEntry& ke, const LaunchSignature& sig,
                               int gpu) {
  // Read-modify-write may-args carry no static read map, and each partition
  // must observe the merged writes of every earlier one (sequential
  // single-device semantics): gather the whole buffer to this device right
  // before its partition launches.  The leading barrier also orders this
  // partition behind its predecessor, whose writes fold into the tracker
  // only after its kernel returns.
  trace::Span span(config_.tracer, "runtime", "gather-rmw");
  machine_->synchronizeAll();
  for (std::size_t arg : ke.rmwMayArgs) {
    VirtualBuffer* vb = sig.buffers[arg];
    PP_ASSERT(vb != nullptr);
    vb->tracker_.query(0, vb->bytes(), [&](i64 b, i64 e, Owner owner, u64) {
      if (owner < 0 || owner == gpu) return;
      issuePeerCopy(vb, gpu, static_cast<int>(owner), b, e, stats_.peerCopies,
                    "peer-copy");
    });
  }
  machine_->synchronizeAll();
}

LaunchSignature Runtime::prepareLaunch(const KernelEntry& ke, const Dim3& grid,
                                      const Dim3& block,
                                      std::span<const LaunchArg> args) const {
  const KernelModel& model = *ke.model;
  const std::string& kernelName = model.kernel;
  PP_ASSERT_MSG(args.size() + 6 == ke.partitioned->numParams(),
                "kernel argument count mismatch");

  // Validate the model's launch assumptions (axes the kernel ignores).
  const i64 gridAxes[3] = {grid.x, grid.y, grid.z};
  const i64 blockAxes[3] = {block.x, block.y, block.z};
  for (int a = 0; a < 3; ++a) {
    if (model.requiresUnitGrid[static_cast<std::size_t>(a)] && gridAxes[a] != 1)
      throw Error("kernel '" + kernelName + "' requires gridDim." +
                  ir::axisName(static_cast<ir::Axis>(a)) + " == 1");
    if (model.requiresUnitBlock[static_cast<std::size_t>(a)] && blockAxes[a] != 1)
      throw Error("kernel '" + kernelName + "' requires blockDim." +
                  ir::axisName(static_cast<ir::Axis>(a)) + " == 1");
  }

  LaunchSignature sig;
  sig.model = &model;
  sig.cfg = LaunchConfig{grid, block};
  sig.buffers.reserve(args.size());
  // Scalars for the enumerators: i64 scalar args in declaration order.
  for (std::size_t i = 0; i < args.size(); ++i) {
    const analysis::ParamInfo& p = model.params[i];
    PP_ASSERT_MSG(p.isArray == (args[i].buffer != nullptr),
                  "scalar/array launch argument mismatch");
    if (args[i].buffer != nullptr) checkLive(args[i].buffer);
    sig.buffers.push_back(args[i].buffer);
    if (!p.isArray && p.type == ir::Type::I64)
      sig.scalars.push_back(args[i].scalar.i);
  }
  return sig;
}

void Runtime::executeLaunch(KernelEntry& ke, const LaunchSignature& sig,
                            std::span<const LaunchArg> args) {
  const KernelModel& model = *ke.model;
  const std::string& kernelName = model.kernel;

  ++stats_.launches;
  if (!ke.mayWriteArgs.empty() || !ke.mayReadArgs.empty())
    ++stats_.mayAccessLaunches;

  // May-access writes are tracked by instrumented execution (paper
  // Section 11: "using instrumentation to collect write patterns"), and the
  // inspection walk reads index buffers: both need functional buffer
  // contents.
  if ((!ke.mayWriteArgs.empty() || inspectorActiveFor(ke)) &&
      machine_->mode() != sim::ExecutionMode::Functional)
    throw UnsupportedOperationError(
        "kernel '" + kernelName +
        "' needs may-access write tracking (or an inspection walk), which "
        "requires Functional execution");

  // (1b) Dataflow planner: record/match this launch against the detected
  // cycle.  A planned launch keeps the reactive resolution (the tracker
  // stays the source of truth) but drops the global barriers in favour of
  // per-device engine ordering, and issues its outgoing flow edges eagerly
  // after phase (4).
  DataflowPlanner::Observation obs;
  bool planned = false;
  if (planner_ != nullptr) {
    obs = planner_->observe(sig);
    if (obs.activated) {
      ++stats_.planActivations;
      trace::instant(config_.tracer, "plan", "dataflow-activated",
                     {{"period", static_cast<i64>(planner_->period())}});
    }
    if (obs.diverged) {
      ++stats_.planDivergences;
      trace::instant(config_.tracer, "plan", "dataflow-diverged");
    }
    if (obs.planned) {
      planned = true;
      ++stats_.plannedLaunches;
      trace::instant(config_.tracer, "plan", "dataflow-planned",
                     {{"step", static_cast<i64>(obs.step)}});
    }
  }

  // (2) Synchronize all buffers the kernel reads (Fig. 4, first loop).  The
  // producing kernels must have completed before their output can be copied,
  // so the host first drains outstanding work, then issues the transfers,
  // then barriers again (all_devs_synchronize in Fig. 4).  A planned launch
  // skips both barriers: device-ordering mode makes each copy wait for the
  // endpoint devices' own engines instead, so transfers overlap *other*
  // devices' still-running kernels.
  if (config_.enableDependencyResolution) {
    machine_->setDeviceOrdering(planned);
    if (!planned) machine_->synchronizeAll();
    // Inspector–executor: resolve the exact per-device footprints of the
    // may-access reads (cached across launches) so the regular sync below
    // can skip their whole-extent enumerators.
    std::shared_ptr<const InspectedFootprints> fp;
    if (inspectorActiveFor(ke)) fp = inspectFootprints(ke, sig, args);
    resolveEnumerators(ke, sig, /*writes=*/false);
    if (fp != nullptr) synchronizeMayAccessReads(ke, sig, *fp);
    if (!planned) machine_->synchronizeAll();
  }

  // (3) Launch each partition on its GPU (Fig. 4, second loop).  The span is
  // reset before phase (4) so kernel dispatch and tracker update appear as
  // sibling phases on the timeline.
  std::optional<trace::Span> launchSpan(std::in_place, config_.tracer,
                                        "runtime", "launch-kernels:",
                                        kernelName);
  // Modeled completion per device of this launch's kernels; the planner
  // passes them as the earliest-start floors of eagerly issued flow copies.
  std::vector<double> kernelDone;
  if (planned) kernelDone.assign(static_cast<std::size_t>(config_.numGpus), 0.0);
  // May-write observation state, indexed by argument like the inspection
  // walk's slotOf (left empty for kernels without may-writes).
  std::vector<int> writeSlot;
  std::vector<Footprint> written;
  std::vector<std::pair<i64, i64>> ranges;
  if (!ke.mayWriteArgs.empty()) writeSlot.assign(args.size(), -1);
  for (std::size_t arg : ke.mayWriteArgs) {
    writeSlot[arg] = static_cast<int>(written.size());
    written.emplace_back(args[arg].buffer->bytes() / kElemBytes);
  }
  for (int gpu = 0; gpu < config_.numGpus; ++gpu) {
    GridPartition gp = partitionFor(model, sig.cfg.grid, gpu);
    if (gp.blockCount() == 0) continue;
    // Read-modify-write may-args: this partition must see its predecessors'
    // merged writes before it runs.
    if (!ke.rmwMayArgs.empty()) gatherRmwMayArgs(ke, sig, gpu);
    // Eq. 10: gridConf = partition.max - partition.min.
    LaunchConfig partCfg{{gp.hi.x - gp.lo.x, gp.hi.y - gp.lo.y, gp.hi.z - gp.lo.z},
                         sig.cfg.block};
    std::vector<sim::KernelArg> kargs;
    kargs.reserve(args.size() + 6);
    for (const LaunchArg& a : args) {
      if (a.buffer)
        kargs.push_back(sim::KernelArg::ofBuffer(
            a.buffer->instances_[static_cast<std::size_t>(gpu)]));
      else
        kargs.push_back(sim::KernelArg{a.scalar, {}, false});
    }
    // Partition parameters in ir::kPartitionParamNames order:
    // min.x, min.y, min.z, max.x, max.y, max.z.
    for (i64 v : {gp.lo.x, gp.lo.y, gp.lo.z, gp.hi.x, gp.hi.y, gp.hi.z})
      kargs.push_back(sim::KernelArg::ofInt(v));

    if (ke.mayWriteArgs.empty()) {
      double done = machine_->launchKernel(gpu, *ke.partitioned, partCfg, kargs);
      if (planned) kernelDone[static_cast<std::size_t>(gpu)] = done;
      continue;
    }

    // Instrumented launch: observe the may-writes of this partition, then
    // fold them into the trackers as coalesced element ranges.  Partitions
    // may overlap; folding in ascending device order makes the highest
    // device's write win, which reproduces sequential single-device
    // last-write-wins.
    ir::AccessObserver observer = [&](std::size_t arg, bool isWrite, i64 flat,
                                      std::span<const i64, 12>) {
      if (isWrite && writeSlot[arg] >= 0)
        written[static_cast<std::size_t>(writeSlot[arg])].add(flat);
    };
    sim::LaunchOptions opts;
    opts.observer = &observer;
    opts.costMultiplier = kInstrumentationSlowdown;
    machine_->launchKernel(gpu, *ke.partitioned, partCfg, kargs, opts);

    for (std::size_t arg = 0; arg < args.size(); ++arg) {
      if (writeSlot[arg] < 0) continue;
      ranges.clear();
      const i64 distinct =
          written[static_cast<std::size_t>(writeSlot[arg])].drain(ranges);
      if (distinct == 0) continue;
      VirtualBuffer* vb = sig.buffers[arg];
      PP_ASSERT(vb != nullptr);
      // Charged per distinct element written, not per range.
      updateWriteRanges(vb, gpu, ranges, distinct, kResolutionCostPerRow,
                        "instrumented-writes");
    }
  }

  launchSpan.reset();

  // (4) Update the trackers for all writes (Fig. 4, third loop); this runs
  // concurrently with the asynchronous kernels (host-side only).
  if (config_.enableDependencyResolution)
    resolveEnumerators(ke, sig, /*writes=*/true);

  // (5) Eager prefetch: issue this cycle position's compiled flow edges now
  // that the trackers reflect the launch's writes.  Floors keep the modeled
  // copies behind the producing kernels; device ordering (still on) keeps
  // them behind the destination's compute.
  if (planned) issuePrefetches(sig, obs.step, std::move(kernelDone));
  machine_->setDeviceOrdering(false);
  sampleCacheCounters();

  // Remember this launch's signature so a later repartition can recompute
  // the kernel's per-device write footprints under both geometries.
  ke.lastLaunch = sig;
}

void Runtime::launch(const std::string& kernelName, const Dim3& grid,
                     const Dim3& block, std::span<const LaunchArg> args) {
  // (1) Validate: a rejected launch throws before any tracker, machine, or
  // stats state is touched.
  KernelEntry& ke = entry(kernelName);
  const LaunchSignature sig = prepareLaunch(ke, grid, block, args);
  // (2) The guard runs even when executeLaunch throws: the counters the
  // launch moved are sampled onto their trace tracks, and device-ordering
  // mode, which is scoped to one planned launch, cannot leak into the next
  // one.
  trace::LaunchScope launchScope(config_.tracer, kernelName);
  struct Guard {
    Runtime& rt;
    const RuntimeStats before;
    const sim::MachineStats machineBefore;
    ~Guard() {
      rt.stats_.traceChanges(rt.config_.tracer, before);
      rt.machine_->stats().traceChanges(rt.config_.tracer, machineBefore);
      rt.machine_->setDeviceOrdering(false);
    }
  } guard{*this, stats_, machine_->stats()};
  // (3) The Fig. 4 flow.
  executeLaunch(ke, sig, args);
}

}  // namespace polypart::rt
