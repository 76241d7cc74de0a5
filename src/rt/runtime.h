#pragma once

// The runtime library (paper Section 8).
//
// Implements the multi-GPU primitives the rewritten host code calls:
//  - virtual buffers: one device-local instance per GPU plus a B-tree
//    segment tracker recording which instance holds the most recent copy of
//    each byte range (Section 8.1),
//  - memcpy translation: host-to-device scatters linearly across GPUs,
//    device-to-host gathers via the tracker, device-to-device is rejected
//    (Section 8.2),
//  - partitioned kernel launches following the Fig. 4 pseudo-code:
//    synchronize read sets, barrier, launch the partitioned clones, update
//    the trackers from the write sets (Sections 5, 8.3),
//  - the CUDA Runtime replacement surface (Section 8.4), including
//    getDeviceCount() == 1 so applications keep their single-GPU logic.
//
// The configuration carries the α/β/γ switches of the overhead analysis
// (Section 9.2): disable transfers, or disable dependency resolution
// entirely.
//
// Every launch resolves in the paper's serial loop over (GPU partition,
// array) pairs, on the calling thread (Section 8.3, Fig. 4).  As in the
// paper, one application owns the runtime and every buffer in it (see
// DESIGN.md "Launch path").

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/model.h"
#include "codegen/enumerator.h"
#include "ir/transform.h"
#include "rt/tracker.h"
#include "sim/machine.h"
#include "support/counters.h"

namespace polypart::trace {
class Tracer;
struct Arg;
}

namespace polypart::rt {

class Checkpoint;
class DataflowPlanner;
class TransferPlan;

/// Storage element size: virtual buffers hold 8-byte elements
/// (ir::Type::I64/F64).  Host mirrors, tracker walks, the H2D split and the
/// planner's footprint ranges all work in whole elements of this size.
inline constexpr i64 kElemBytes = 8;

/// Sorted, disjoint, non-adjacent half-open element ranges of one buffer
/// (the shape Enumerator::materialize emits).
using ElemRanges = std::vector<std::pair<i64, i64>>;

/// Process-default enumerator execution tier: POLYPART_ENUMERATOR_TIER
/// (interpret|bytecode|specialized) when set, else Interpret.  Used as the
/// RuntimeConfig default so suites can be re-run under another tier without
/// overriding configs that set the knob explicitly.
codegen::EnumTier defaultEnumeratorTier();

/// Process-default for RuntimeConfig::dataflowPlanning: the
/// POLYPART_DATAFLOW_PLANNING environment flag when set (strictly parsed:
/// 0/1/on/off/true/false/yes/no; anything else throws naming the variable),
/// else false.  Mirrors POLYPART_ENUMERATOR_TIER so suites can be re-run
/// with planning forced on without touching configs.
bool defaultDataflowPlanning();

/// Process-default for RuntimeConfig::allowRepartitioning: the
/// POLYPART_ALLOW_REPARTITIONING environment flag when set (same strict
/// parse as POLYPART_DATAFLOW_PLANNING), else false.  Forcing it on
/// globally is behaviour-neutral for applications that never call
/// repartition(), which is what lets check.sh re-run whole suites with the
/// knob enabled.
bool defaultAllowRepartitioning();

/// Process-default for RuntimeConfig::inspectorExecutor: the
/// POLYPART_INSPECTOR_EXECUTOR environment flag when set (same strict parse
/// as POLYPART_DATAFLOW_PLANNING), else false.  Behaviour-neutral for
/// kernels without may-access reads, which is what lets check.sh re-run
/// whole suites with the knob enabled.
bool defaultInspectorExecutor();

/// A weighted grid partitioning along a kernel's split axis: device d gets
/// the block range [extent * prefix(d) / total, extent * (prefix(d) +
/// weights[d]) / total).  All-equal weights reproduce the paper's even
/// split bit-for-bit; a zero weight gives the device an empty partition
/// (elasticity: the device is excluded from compute without being removed
/// from the machine).
struct Partitioning {
  std::vector<i64> weights;  // one non-negative weight per GPU

  /// The paper's even split over `numGpus` devices (weight 1 each).
  static Partitioning even(int numGpus) {
    return Partitioning{std::vector<i64>(static_cast<std::size_t>(numGpus), 1)};
  }

  i64 totalWeight() const {
    i64 t = 0;
    for (i64 w : weights) t += w;
    return t;
  }
  /// Devices with a non-zero share.
  int activeDevices() const {
    int n = 0;
    for (i64 w : weights)
      if (w > 0) ++n;
    return n;
  }

  bool operator==(const Partitioning&) const = default;
};

/// Outcome of one Runtime::repartition() call.
struct RepartitionResult {
  /// Bytes actually copied between devices (the pset old/new difference,
  /// clipped against live tracker ownership).
  i64 bytesMoved = 0;
  /// Full write footprint of the new partitioning — what a naive
  /// re-distribution of everything the kernel touches would move.  The
  /// minimality guarantee is bytesMoved <= bytesFootprint.
  i64 bytesFootprint = 0;
  /// Peer copies issued for the transition.
  i64 copies = 0;
};

struct RuntimeConfig {
  int numGpus = 1;
  sim::ExecutionMode mode = sim::ExecutionMode::Functional;
  sim::MachineSpec machine = sim::MachineSpec::k80Node(1);

  /// β configuration: dependency resolution and tracker updates run, but no
  /// data moves (Section 9.2).
  bool enableTransfers = true;
  /// γ configuration: no resolution, no tracker updates, no transfers.
  bool enableDependencyResolution = true;

  /// Enumerator full-row coalescing (ablation knob).
  bool coalesceEnumerators = true;
  /// Enumerator execution tier (see DESIGN.md "Execution tiers"):
  /// `Interpret` walks the scan-nest ASTs (paper mode), `Bytecode` runs the
  /// register bytecode compiled once per kernel, `Specialized` additionally
  /// constant-folds each (launch config, scalars, partition 6-tuple) vector
  /// on first sight and caches the folded program under the same key as the
  /// enumeration cache.  Every tier produces byte-identical results, stats,
  /// and modeled timing.  Defaults to POLYPART_ENUMERATOR_TIER
  /// (interpret|bytecode|specialized) when set, else Interpret.
  codegen::EnumTier enumeratorTier = defaultEnumeratorTier();
  /// Shared-copy tracking: remember which devices already hold a valid
  /// replica of a segment and skip their re-synchronization.  Extends the
  /// paper's tracker, which "does not support shared copies, resulting in
  /// redundant transfers for applications with large amounts of shared
  /// data" (Section 8.3).  Off by default (paper behaviour).
  bool trackSharedCopies = false;
  /// Topology-aware transfer scheduling (extension; see DESIGN.md "Transfer
  /// plan").  Off (default): the paper's behaviour — each resolved segment is
  /// copied the moment the tracker query yields it.  On: read
  /// synchronization collects the per-launch transfer decisions into a
  /// TransferPlan that merges adjacent/overlapping same-link ranges, chains
  /// one-to-many reads through fresh replicas (when trackSharedCopies
  /// provides the sharer bookkeeping), and issues round-robin across
  /// (src, dst) links.  Functional results, tracker state, and gather bytes
  /// are byte-identical with scheduling on or off; bytesPeerToPeer can only
  /// shrink (tests/transfer_plan_test.cpp).
  bool transferScheduling = false;
  /// Cross-launch dataflow planning (extension; see DESIGN.md "Cross-launch
  /// dataflow planning").  Off (default): the paper's reactive behaviour.
  /// On: the runtime records launch signatures, detects the steady-state
  /// launch cycle of iterative applications, composes producer write maps
  /// with downstream read maps into exact inter-launch flow sets (with
  /// dead-transfer elision), and eagerly prefetches the live bytes right
  /// after the producing launch — floored at the producer kernels' modeled
  /// completion — instead of copying them reactively at the consumer.
  /// Planned launches drop the global barriers around read synchronization
  /// in favour of per-device engine ordering (sim::Machine device-ordering
  /// mode), which is where the modeled-time win comes from.  The segment
  /// tracker stays the source of truth — planned copies are clipped against
  /// it and recorded as shared replicas, and any divergence falls back to
  /// the reactive path — so functional results are byte-identical with
  /// planning on or off (tests/dataflow_plan_test.cpp).  Defaults to the
  /// POLYPART_DATAFLOW_PLANNING environment override, else off.  Requires
  /// dependency resolution and transfers to be enabled to take effect.
  bool dataflowPlanning = defaultDataflowPlanning();
  /// Runtime repartitioning (extension; see DESIGN.md "Elastic
  /// repartitioning").  Off (default): the paper's behaviour — the grid
  /// partitioning chosen at construction is fixed for the life of the run,
  /// and repartition()/recoverDevice() throw.  On: Runtime::repartition()
  /// may change a kernel's per-device weights between launches, migrating
  /// only the pset difference of the old and new write footprints;
  /// checkpoint()/recoverDevice() add device-failure recovery on top.
  /// Behaviour-neutral until repartition() is actually called.  Defaults to
  /// the POLYPART_ALLOW_REPARTITIONING environment override, else off.
  bool allowRepartitioning = defaultAllowRepartitioning();
  /// Inspector–executor for may-access reads (extension; see DESIGN.md
  /// "May-access tier & inspector–executor").  Off (default): reads the
  /// analysis demoted to the may-access tier synchronize the whole declared
  /// extent of the array (conservative whole-buffer sharing).  On: before
  /// the read synchronization, the runtime runs a host-side inspection walk
  /// (the partitioned kernel's address slice) over mirrors of the current
  /// buffer contents and records the exact per-device element footprints of every
  /// may-access read, then synchronizes only those.  Footprints are cached
  /// per kernel, keyed by (launch geometry, scalars, buffer identities,
  /// buffer content versions, partitioning) and invalidated when any
  /// inspected buffer's content changes.  Requires Functional mode when a
  /// launched kernel actually has may-access reads; functional results are
  /// byte-identical with the inspector on or off.  Defaults to the
  /// POLYPART_INSPECTOR_EXECUTOR environment override, else off.
  bool inspectorExecutor = defaultInspectorExecutor();
  /// Launch-plan enumeration cache: memoizes, per kernel, the coalesced
  /// element ranges the enumerators produce for a given (partition tuple,
  /// grid, block, scalars) key.  The ranges are a pure function of that key,
  /// so iterative applications that relaunch the same configuration replay
  /// the recorded plan instead of re-running the polyhedral enumeration.
  /// Tracker queries, transfer decisions, and tracker updates stay live
  /// either way — only the pure enumeration is memoized — so functional
  /// results and transfer counts are identical with the cache on or off.
  bool enableEnumerationCache = true;
  /// Must be 0: the constructor throws Error naming the field otherwise.
  /// Resolution always runs the paper's serial loop (Section 8.3).
  int resolutionThreads = 0;
  /// Must be 0: the constructor throws Error naming the field otherwise.
  /// launch() always resolves, transfers, and executes before returning.
  int pipelineDepth = 0;
  /// Launch-pipeline tracer (support/trace.h).  When set, the runtime and the
  /// machine model record structured events — launch/sync/update spans,
  /// plan-cache hit/miss/evict, per-transfer src/dst/bytes, virtual-time
  /// engine spans — exportable as a Chrome trace.  Must outlive the
  /// Runtime.  Null (the default) disables tracing; results, modeled
  /// timing, RuntimeStats, and MachineStats are identical with tracing on or
  /// off (tests/trace_test.cpp).  Examples and benches wire this to the
  /// POLYPART_TRACE=<path> environment hook (trace::EnvTraceSession).
  trace::Tracer* tracer = nullptr;
};

/// A "virtual buffer": per-device instances + ownership tracker.
class VirtualBuffer {
 public:
  i64 bytes() const { return bytes_; }
  const SegmentTracker& tracker() const { return tracker_; }

 private:
  friend class Runtime;
  friend class TransferPlan;  // issues scheduled copies between instances
  VirtualBuffer(i64 bytes, std::vector<sim::DevBuffer> instances)
      : bytes_(bytes), instances_(std::move(instances)), tracker_(bytes) {}
  i64 bytes_ = 0;
  std::vector<sim::DevBuffer> instances_;  // one per device
  SegmentTracker tracker_;
};

enum class MemcpyKind { HostToHost, HostToDevice, DeviceToHost, DeviceToDevice };

/// Kernel launch argument: a scalar or a virtual buffer.
struct LaunchArg {
  ir::Value scalar;
  VirtualBuffer* buffer = nullptr;

  static LaunchArg ofInt(i64 v) { return {ir::Value::ofInt(v), nullptr}; }
  static LaunchArg ofFloat(double v) { return {ir::Value::ofFloat(v), nullptr}; }
  static LaunchArg ofBuffer(VirtualBuffer* b) { return {{}, b}; }
};

/// What one launch was: the kernel (by its model), the launch geometry, the
/// i64 scalar arguments in declaration order, and one buffer per argument
/// (null for scalars).  The dataflow planner's cycle steps, the inspection
/// cache's key and the last-launch record repartition() migrates from are
/// all this one value.
struct LaunchSignature {
  const analysis::KernelModel* model = nullptr;
  ir::LaunchConfig cfg;
  std::vector<i64> scalars;
  std::vector<VirtualBuffer*> buffers;

  /// True when `buf` is an argument of the launch.
  bool uses(const VirtualBuffer* buf) const {
    return std::find(buffers.begin(), buffers.end(), buf) != buffers.end();
  }
  bool operator==(const LaunchSignature&) const = default;
};

/// Counters for the overhead analysis (Section 9.2), one row each (see
/// support/counters.h).  Telemetry rows describe how the host executed, not
/// what the runtime computed: resolutionWallSeconds is real wall time, and
/// the cache samples are taken at the end of every launch.  The FM-memo
/// counters are process-wide (pset's projection memo is one table per
/// process) diffed against a baseline taken at Runtime construction; the
/// specialized-program counters sum over this runtime's enumerators.  Both
/// are monotone (tests/cache_counters_test.cpp).
#define POLYPART_RUNTIME_COUNTERS(X)                                           \
  X(i64, launches, Deterministic)                                              \
  X(i64, rangesResolved, Deterministic) /* enumerated ranges, all launches */  \
  X(i64, logicalRowsResolved, Deterministic) /* paper's per-row steps */       \
  X(i64, trackerSegmentsVisited, Deterministic)                                \
  X(i64, peerCopies, Deterministic)                                            \
  X(i64, sharedCopyHits, Deterministic) /* avoided by shared-copy tracking */  \
  X(i64, enumCacheHits, Deterministic)      /* plans replayed from cache */    \
  X(i64, enumCacheMisses, Deterministic)    /* plans materialized */           \
  X(i64, enumCacheEvictions, Deterministic) /* dropped by the FIFO bound */    \
  /* Transfer scheduler (all 0 with transferScheduling off). */                \
  X(i64, transfersMerged, Deterministic)   /* folded by same-link merging */   \
  X(i64, broadcastChains, Deterministic)   /* re-sourced from a replica */     \
  X(i64, bytesSavedByDedup, Deterministic) /* bytes not re-moved */            \
  /* Dataflow planner (all 0 with dataflowPlanning off). */                    \
  X(i64, planActivations, Deterministic) /* cycles compiled to a plan */       \
  X(i64, planDivergences, Deterministic) /* plans left by off-cycle launch */  \
  X(i64, plannedLaunches, Deterministic) /* launches matching the plan */      \
  X(i64, prefetchCopies, Deterministic)  /* eager copies from flow edges */    \
  X(i64, bytesPrefetched, Deterministic) /* moved by them (post-merge) */      \
  X(i64, bytesElided, Deterministic)     /* flow bytes dead before a read */   \
  X(i64, prefetchHits, Deterministic)    /* reactive copies skipped */         \
  /* Elastic repartitioning (all 0 unless repartition(), checkpoint() or */    \
  /* recoverDevice() are called). */                                           \
  X(i64, repartitions, Deterministic)      /* calls that changed weights */    \
  X(i64, repartitionCopies, Deterministic) /* peer copies of transitions */    \
  X(i64, bytesRepartitioned, Deterministic)        /* bytes they moved */      \
  X(i64, bytesRepartitionFootprint, Deterministic) /* full-move bound */       \
  X(i64, checkpoints, Deterministic)                                           \
  X(i64, bytesCheckpointed, Deterministic) /* exclusive bytes snapshotted */   \
  X(i64, recoveries, Deterministic)                                            \
  X(i64, restoreCopies, Deterministic) /* H2D copies restoring ranges */       \
  X(i64, bytesRestored, Deterministic)                                         \
  X(i64, bytesAdopted, Deterministic) /* lost bytes re-owned from replicas */  \
  /* May-access tier (all 0 for purely affine kernels). */                     \
  X(i64, mayAccessLaunches, Deterministic)                                     \
  X(i64, inspectorRuns, Deterministic)      /* inspection walks executed */    \
  X(i64, inspectorCacheHits, Deterministic) /* served by cached footprints */  \
  X(i64, inspectorCacheMisses, Deterministic)                                  \
  X(i64, inspectorCacheInvalidations, Deterministic) /* content changed */     \
  X(i64, inspectedElements, Deterministic) /* may-reads the walks observed */  \
  X(double, resolutionWallSeconds, Telemetry) /* host time resolving */        \
  X(i64, fmMemoHits, Telemetry)                                                \
  X(i64, fmMemoMisses, Telemetry)                                              \
  X(i64, fmMemoEvictions, Telemetry)                                           \
  X(i64, specProgramHits, Telemetry)                                           \
  X(i64, specProgramMisses, Telemetry)                                         \
  X(i64, specProgramEvictions, Telemetry)

struct RuntimeStats : counters::Table<RuntimeStats> {
  POLYPART_COUNTER_FIELDS(RuntimeStats, POLYPART_RUNTIME_COUNTERS)
  bool operator==(const RuntimeStats&) const = default;
};
static_assert(sizeof(RuntimeStats) == RuntimeStats::kRowBytes);

class Runtime {
 public:
  /// Builds the runtime for an application: partitions every kernel
  /// (Section 7) and generates its enumerators (Section 6).
  Runtime(RuntimeConfig config, analysis::ApplicationModel model,
          const ir::Module& kernels);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const RuntimeConfig& config() const { return config_; }
  sim::Machine& machine() { return *machine_; }

  // -- CUDA Runtime replacement (Section 8.4) --------------------------------
  /// Allocates a virtual buffer.  Buffers hold 8-byte elements: throws Error
  /// naming the size when `bytes` is negative or not a multiple of 8.
  VirtualBuffer* malloc(i64 bytes);
  /// Releases a buffer obtained from malloc().  Freeing the same buffer
  /// twice, or a pointer this runtime never allocated, is a contract
  /// violation and raises a diagnosable assertion instead of corrupting the
  /// buffer table.
  void free(VirtualBuffer* buf);
  /// cudaMemcpy replacement; dst/src are host pointers or VirtualBuffer*
  /// depending on `kind`.  Device-to-device throws (Section 8.2).  A
  /// negative `bytes`, or one larger than the virtual buffer, throws Error
  /// naming the count and the buffer size before anything is copied.  A
  /// VirtualBuffer* that is not live (freed, or never allocated here) is a
  /// contract violation and dies with a diagnostic, as launch() does.
  void memcpy(void* dst, const void* src, i64 bytes, MemcpyKind kind);
  /// cudaGetDeviceCount replacement: "always returns 1" (Section 8.4).
  int getDeviceCount() const { return 1; }
  /// cudaDeviceSynchronize replacement: synchronizes all devices.
  void deviceSynchronize();

  /// Partitioned kernel launch (Fig. 4).  `grid`/`block` are the original
  /// single-GPU configuration.  Validates the launch, then synchronizes
  /// reads, runs the partitions, and updates the trackers before returning.
  /// A launch that fails validation throws before touching any tracker,
  /// machine, or stats state.
  void launch(const std::string& kernelName, const ir::Dim3& grid,
              const ir::Dim3& block, std::span<const LaunchArg> args);

  /// End-to-end simulated time including outstanding asynchronous work.
  double elapsedSeconds() const;

  /// Aggregate counters.
  const RuntimeStats& stats() const { return stats_; }
  const sim::MachineStats& machineStats() const { return machine_->stats(); }

  /// The partitioned clone of a kernel (for inspection/tests).
  const ir::Kernel& partitionedKernel(const std::string& name) const;
  /// The grid partition assigned to `gpu` for a launch of `grid` blocks.
  ir::GridPartition partitionFor(const analysis::KernelModel& model,
                                 const ir::Dim3& grid, int gpu) const;

  // -- elastic repartitioning (RuntimeConfig::allowRepartitioning) -----------
  /// The current weighted partitioning of `kernelName` (even at start).
  const Partitioning& partitioning(const std::string& kernelName) const;
  /// Changes `kernelName`'s partitioning to `next` between launches,
  /// migrating only the difference of the old and new write footprints (a
  /// per-device range subtraction of the kernel's write enumerators under
  /// its last launch signature, clipped against live tracker ownership) and
  /// updates the trackers, so subsequent launches resolve against the new
  /// layout with byte-identical results.  Invalidates the dataflow plan.
  /// Throws Error when repartitioning is disabled or `next` is invalid
  /// (wrong arity, negative weights, zero total, weight on a failed device).
  RepartitionResult repartition(const std::string& kernelName,
                                const Partitioning& next);
  /// repartition() over every kernel (one shared new partitioning);
  /// returns the summed result.
  RepartitionResult repartitionAll(const Partitioning& next);
  /// Load-rebalancing policy: new weights proportional to current weight
  /// divided by measured per-device kernel busy seconds
  /// (sim::Machine::kernelBusySecondsForDevice), normalized to integer
  /// weights summing to ~`scale`.  Failed devices get 0; active devices
  /// never drop below 1.  Returns the current partitioning unchanged when
  /// any active device has no measured load yet.
  Partitioning loadBalancedPartitioning(const std::string& kernelName,
                                        i64 scale = 1024) const;

  // -- device-failure recovery (rt/checkpoint.h) -----------------------------
  /// Host-side snapshot of every byte range that exists on exactly one live
  /// device (replicated ranges survive a single failure without help).
  /// Synchronizes first.  Cheap relative to a full dump: on
  /// partitioned workloads each device exclusively owns ~1/N of the data.
  Checkpoint checkpoint();
  /// Recovers from the failure of `device` (after sim::Machine::failDevice):
  /// lost exclusive ranges are restored from `cp` onto a surviving device
  /// (ranges with a live replica are adopted without a copy), the failed
  /// device's sharer bits are dropped, and every kernel is repartitioned to
  /// `next` (which must give `device` weight 0).  Throws Error when a lost
  /// range is covered by neither a replica nor the checkpoint.
  void recoverDevice(int device, const Checkpoint& cp, const Partitioning& next);

  /// Test hook for the free() bookkeeping: retained freed-buffer records.
  std::size_t freedRecordCount() const { return freedBuffers_.size(); }

 private:
  // -- fixed costs and bounds of the runtime --------------------------------
  /// Modeled host cost per *logical row* of dependency bookkeeping: the
  /// paper's runtime enumerates the first/last element of every array row
  /// and performs a tracker operation per row (Sections 6.1, 8.3).  This
  /// part runs in the β configuration too, so it is what the paper's
  /// "patterns" overhead measures (median 0.51 %, max 6.8 %).
  static constexpr double kResolutionCostPerRow = 3e-9;
  /// Modeled host cost per logical row when a launch plan is replayed from
  /// the enumeration cache.  The per-row charging structure of the
  /// β-overhead model is preserved — every row still pays a tracker
  /// bookkeeping step — but the polyhedral enumeration of the row is gone,
  /// so the coefficient is smaller than kResolutionCostPerRow.
  static constexpr double kCachedResolutionCostPerRow = 1e-9;
  /// Modeled host cost per row of *transfer creation* (assembling and
  /// issuing the memcpy for a resolved row range).  Skipped when transfers
  /// are disabled, so it shows up in the α-β "transfers" share, where the
  /// paper attributes the majority of the overhead.
  static constexpr double kTransferIssueCostPerRow = 35e-9;
  /// Fixed modeled host cost per (array, partition) resolution step.
  static constexpr double kResolutionCostPerArray = 2e-6;
  /// Modeled host cost per may-read access observed by an inspection walk
  /// (charged on cache misses only; the walk re-executes the kernel's
  /// address arithmetic on the host).
  static constexpr double kInspectorCostPerElement = 1e-9;
  /// Slowdown factor applied to kernels with may-access writes, whose
  /// written ranges the runtime collects by instrumented execution (paper
  /// Section 11 future work; dynamic collection "yields accurate results at
  /// the expense of significant runtime overhead").
  static constexpr double kInstrumentationSlowdown = 2.0;
  /// Enumeration cache bound: retained launch plans per kernel, evicted FIFO.
  static constexpr std::size_t kEnumerationCachePlansPerKernel = 64;
  /// Inspection cache bound: retained footprint sets per kernel, evicted
  /// FIFO.
  static constexpr std::size_t kInspectionCacheEntriesPerKernel = 8;

  /// A cached launch plan: the materialized output of every enumerator of a
  /// kernel (indexed like KernelEntry::enumerators) for one EnumerationKey.
  using LaunchPlan = std::vector<codegen::MaterializedRanges>;

  /// One inspection result: exact per-device element footprints of a
  /// kernel's may-access reads, plus everything the walk depended on (the
  /// cache key: the launch signature and the partitioning).  Entries go stale
  /// when any read buffer's Tracker::contentVersion() moves — update() bumps
  /// it, addSharer() does not, so replica bookkeeping (shared-copy tracking,
  /// prefetches) cannot thrash the cache.
  struct InspectedFootprints {
    LaunchSignature sig;
    std::vector<u64> contentVersions;  // of the read buffers, in arg order
    std::vector<i64> weights;          // partitioning when inspected
    /// ranges[i][gpu] -> coalesced half-open element ranges read by `gpu`
    /// through inspectable arg mayReadArgs[i].
    std::vector<std::vector<ElemRanges>> ranges;
  };

  struct KernelEntry {
    const analysis::KernelModel* model = nullptr;
    ir::KernelPtr partitioned;
    std::vector<codegen::Enumerator> enumerators;
    /// Current weighted grid partitioning (even(numGpus) at construction).
    Partitioning partitioning;
    /// Signature of the most recent launch, recorded by executeLaunch():
    /// repartition() re-evaluates the kernel's concrete write footprints
    /// under it to compute the old/new difference.  Reset when a buffer it
    /// uses is freed.
    std::optional<LaunchSignature> lastLaunch;
    /// Enumeration cache (one plan per launch configuration seen, FIFO
    /// bounded by kEnumerationCachePlansPerKernel).
    std::unordered_map<codegen::EnumerationKey, LaunchPlan,
                       codegen::EnumerationKeyHash>
        planCache;
    std::deque<codegen::EnumerationKey> planCacheOrder;
    /// May-access tier metadata, precomputed at construction.
    /// Args whose writes left the static model (ArrayModel::writeMayAccess):
    /// executeLaunch() observes their stores and folds them into the
    /// trackers.  Overlaps between partitions are legal: they merge in
    /// ascending device order, which reproduces sequential single-device
    /// last-write-wins.
    std::vector<std::size_t> mayWriteArgs;
    /// May-written args the kernel also reads (read-modify-write): every
    /// partition must see its predecessors' merged writes, so the runtime
    /// gathers the whole buffer to each device right before its partition.
    std::vector<std::size_t> rmwMayArgs;
    /// May-read args eligible for inspection (readMayAccess and not
    /// may-written; RMW args are covered wholly by the pre-partition
    /// gather).  Index i here owns InspectedFootprints::ranges[i].
    std::vector<std::size_t> mayReadArgs;
    /// Per enumerators[] entry: it realizes the whole-extent read of an
    /// inspectable arg, so resolveEnumerators() skips it while the inspector
    /// is active (the footprint sync replaces it).
    std::vector<char> enumIsMayRead;
    /// Inspection cache, FIFO bounded by kInspectionCacheEntriesPerKernel.
    std::deque<std::shared_ptr<const InspectedFootprints>> inspections;
  };

  /// RAII wall-clock window accumulating into stats_.resolutionWallSeconds.
  /// Windows must not nest (that would count the same real time twice),
  /// which resolutionWindowOpen_ asserts.
  class ResolutionTimer;

  const KernelEntry& entry(const std::string& name) const;
  KernelEntry& entry(const std::string& name);
  /// partitionFor under an explicit weighted partitioning (partitionFor
  /// itself delegates here with the kernel's current weights).
  static ir::GridPartition partitionWith(const analysis::KernelModel& model,
                                         const ir::Dim3& grid, int gpu,
                                         const Partitioning& part);
  /// Validates arity/range/total of `next` against this runtime's devices
  /// (failed devices must have weight 0); throws Error otherwise.
  void validatePartitioning(const Partitioning& next) const;
  /// The element ranges enumerator `e` of `ke` touches on `gpu` for launch
  /// `sig` under `part`; empty when the device gets no blocks.  The
  /// footprint engine of the dataflow planner and of repartitioning:
  /// materializes directly instead of going through resolvePlan(), so the
  /// enumeration-cache counters describe launches only.
  ElemRanges footprintOn(const KernelEntry& ke, const codegen::Enumerator& e,
                         const LaunchSignature& sig, int gpu,
                         const Partitioning& part) const;
  /// The footprint-difference migration of one kernel's transition
  /// prev -> next (repartition.cpp).  Caller has validated `next`.
  RepartitionResult migrateKernel(KernelEntry& ke, const Partitioning& prev,
                                  const Partitioning& next);
  /// Returns the cached launch plan for one (kernel, partition) pair,
  /// materializing it on a miss; nullptr when the cache is disabled.
  /// `wasHit` reports whether the plan was replayed rather than built.
  const LaunchPlan* resolvePlan(KernelEntry& ke,
                                const codegen::PartitionTuple& tuple,
                                const ir::LaunchConfig& cfg,
                                std::span<const i64> scalars, bool& wasHit);
  /// Fig. 4's first (`writes` false: synchronize reads) or third (`writes`
  /// true: update trackers) loop over the kernel's enumerators: for each
  /// device with blocks, each enumerator's ranges — replayed from the
  /// enumeration cache, or enumerated into enumScratch_ with the cache off —
  /// go through syncReadRanges() or updateWriteRanges().
  void resolveEnumerators(KernelEntry& ke, const LaunchSignature& sig,
                          bool writes);
  /// The read body, for one device's element ranges of one buffer: walks
  /// their tracker segments, counts a sharer hit for each segment `gpu`
  /// already replicates (sharedCopyHits with shared-copy tracking on, else
  /// prefetchHits), copies every other stale segment to `gpu` — or records it
  /// in `xferPlan` when scheduling — and records the new replicas.  Then
  /// charges the host `rowCost` (plus the transfer-issue cost when transfers
  /// are on) per row of `rows` and per segment, as a `what` span.
  void syncReadRanges(VirtualBuffer* vb, int gpu, const ElemRanges& ranges,
                      i64 rows, double rowCost, const char* what,
                      TransferPlan* xferPlan);
  /// The write body, for one device's element ranges of one buffer: makes
  /// `gpu` their owner and charges the host `rowCost` per row of `rows`, as
  /// a `what` span.
  void updateWriteRanges(VirtualBuffer* vb, int gpu, const ElemRanges& ranges,
                         i64 rows, double rowCost, const char* what);
  /// Advances the modeled host clock by `cost` seconds, traced as a
  /// sim.pattern span `what` with one argument on the host track.
  void chargeHost(double cost, const char* what, const trace::Arg& arg);
  /// Copies bytes [begin, end) of `vb` from device `src`'s instance to
  /// `dst`'s, adds one to `count`, and traces a transfer instant `what`.
  void issuePeerCopy(VirtualBuffer* vb, int dst, int src, i64 begin, i64 end,
                     i64& count, const char* what);
  /// True when this launch should run the inspector–executor: the knob is
  /// on and the kernel has inspectable may-access reads.
  bool inspectorActiveFor(const KernelEntry& ke) const;
  /// Returns the (possibly cached) inspection of this launch: a host-side
  /// run of the partitioned kernel's address slice (ir::Program::slice) over
  /// mirrors of the buffers the slice reads, which records the exact
  /// per-device element footprint of every inspectable may-access read.
  /// Functional mode only (the walk needs the buffer bytes).
  std::shared_ptr<const InspectedFootprints> inspectFootprints(
      KernelEntry& ke, const LaunchSignature& sig,
      std::span<const LaunchArg> args);
  /// Read synchronization for the inspected footprints, replacing the
  /// skipped whole-extent enumerators: the same read body as the static
  /// reads, with every range charged as one uncached row.
  void synchronizeMayAccessReads(KernelEntry& ke, const LaunchSignature& sig,
                                 const InspectedFootprints& fp);
  /// The pre-partition gather for read-modify-write may-access args: before
  /// partition `gpu` launches, every byte of each rmwMayArgs buffer owned
  /// elsewhere is copied to `gpu` so the partition observes its
  /// predecessors' merged writes (sequential single-device semantics).
  void gatherRmwMayArgs(KernelEntry& ke, const LaunchSignature& sig, int gpu);
  /// Returns the per-launch plan for the read-sync phase when
  /// transferScheduling is on, or nullptr (paper behaviour: copies are
  /// issued inline by the tracker-query callback).
  std::unique_ptr<TransferPlan> makeTransferPlan() const;
  /// Schedules + issues a collected plan and folds its stats into stats_
  /// (peerCopies counts the post-merge copies actually issued).
  void issueTransferPlan(TransferPlan& plan);
  /// Dataflow-planning hook: issues the compiled flow edges of cycle
  /// position `step` right after the producing launch `sig`.  Every planned
  /// byte range is clipped against the live tracker (only segments the
  /// planned source still owns, and the destination does not already share,
  /// are copied), issued with per-source floors at the producing kernels'
  /// modeled completions, then recorded as shared replicas so the
  /// consumer's reactive resolution skips them.
  void issuePrefetches(const LaunchSignature& sig, std::size_t step,
                       std::vector<double> kernelDone);
  /// Samples the FM-memoization and specialized-program cache counters into
  /// the stats meta-fields (end of every launch).
  void sampleCacheCounters();

  /// Validates a launch request and returns its signature, touching no
  /// machine, tracker, or stats state.
  LaunchSignature prepareLaunch(const KernelEntry& ke, const ir::Dim3& grid,
                                const ir::Dim3& block,
                                std::span<const LaunchArg> args) const;
  /// The Fig. 4 flow for a prepared launch: sync reads, launch the
  /// partitions, update trackers.  `args` carry the scalar values.
  void executeLaunch(KernelEntry& ke, const LaunchSignature& sig,
                     std::span<const LaunchArg> args);
  /// Dies unless `buf` is a live buffer of this runtime, naming a freed
  /// buffer or a foreign pointer; called before any use dereferences it.
  void checkLive(const VirtualBuffer* buf) const;

  RuntimeConfig config_;
  analysis::ApplicationModel model_;
  std::unique_ptr<sim::Machine> machine_;
  std::map<std::string, KernelEntry> kernels_;
  std::vector<std::unique_ptr<VirtualBuffer>> buffers_;
  /// Addresses of buffers released through free(): distinguishes a double
  /// free from a free of a pointer this runtime never allocated.
  std::vector<const VirtualBuffer*> freedBuffers_;
  RuntimeStats stats_;
  /// Cross-launch dataflow planner (null unless dataflowPlanning is on and
  /// dependency resolution + transfers are enabled).
  std::unique_ptr<DataflowPlanner> planner_;
  /// FM-memoization counter baseline at construction: the memo table is
  /// process-wide, so per-runtime telemetry is the counter delta.
  i64 fmBaseHits_ = 0;
  i64 fmBaseMisses_ = 0;
  i64 fmBaseEvictions_ = 0;
  /// An open ResolutionTimer window (the nesting guard).
  bool resolutionWindowOpen_ = false;
  /// syncReadRanges()' replica scratch: the segments copied by one tracker
  /// query, recorded as sharers once the query returns.
  ElemRanges sharerScratch_;
  /// resolveEnumerators()' range scratch with the enumeration cache off:
  /// one enumerator's ranges for one device, reused across calls.
  ElemRanges enumScratch_;
};

}  // namespace polypart::rt
