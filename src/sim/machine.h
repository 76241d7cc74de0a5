#pragma once

// The multi-GPU machine simulator.
//
// Functional state and timing are decoupled, the standard full-system
// simulator design: operations execute eagerly in host issue order (so
// results are exact), while completion times are computed against per-engine
// availability — one compute engine and one copy engine per direction per
// device, mirroring how CUDA overlaps kernels with DMA transfers.
//
// In TimingOnly mode no bytes move and kernels do not execute; durations
// come from the static cost model (ir/cost.h).  Benches use TimingOnly to
// run the paper's full problem sizes; correctness tests use Functional.

#include <optional>
#include <vector>

#include "ir/cost.h"
#include "ir/interp.h"
#include "sim/spec.h"
#include "support/counters.h"

namespace polypart::sim {

// Sim-domain trace tracks (trace.h pid 2): one per engine, plus track 0 for
// the host-side dependency-resolution cost the runtime models.
inline constexpr int kSimHostTrack = 0;
inline constexpr int simComputeTrack(int device) { return 1 + 3 * device; }
inline constexpr int simCopyInTrack(int device) { return 2 + 3 * device; }
inline constexpr int simCopyOutTrack(int device) { return 3 + 3 * device; }

enum class ExecutionMode { Functional, TimingOnly };

/// Handle to a device-memory allocation.
struct DevBuffer {
  int device = -1;
  std::size_t id = static_cast<std::size_t>(-1);
  bool valid() const { return device >= 0; }
};

/// Argument for a simulated kernel launch.
struct KernelArg {
  ir::Value scalar;
  DevBuffer buffer;
  bool isBuffer = false;

  static KernelArg ofInt(i64 v) { return {ir::Value::ofInt(v), {}, false}; }
  static KernelArg ofFloat(double v) { return {ir::Value::ofFloat(v), {}, false}; }
  static KernelArg ofBuffer(DevBuffer b) { return {{}, b, true}; }
};

/// Options for one simulated kernel launch.
struct LaunchOptions {
  /// Invoked on every global access during Functional execution (used to
  /// collect may-access writes, paper Section 11 future work).
  const ir::AccessObserver* observer = nullptr;
  /// Scales the modeled kernel duration (observed launches pay the
  /// "significant runtime overhead" the paper attributes to dynamic
  /// write-pattern collection).
  double costMultiplier = 1.0;
};

/// Aggregate counters for the evaluation section, one row each (see
/// support/counters.h).  All are deterministic: modeled time and traffic
/// depend only on the operation sequence, so two runs match only when their
/// operation sequences were identical (doubles are compared exactly).
/// Modeled bytes accumulate as double: they are fractional when the modeled
/// element width differs from the 8-byte storage width, and truncating per
/// transfer would under-report workloads made of many small copies.
#define POLYPART_MACHINE_COUNTERS(X)                                           \
  X(i64, apiCalls, Deterministic)                                              \
  X(i64, kernelLaunches, Deterministic)                                        \
  X(i64, transfers, Deterministic)                                             \
  X(double, bytesHostToDevice, Deterministic)                                  \
  X(double, bytesDeviceToHost, Deterministic)                                  \
  X(double, bytesPeerToPeer, Deterministic)                                    \
  X(double, kernelBusySeconds, Deterministic)   /* summed across devices */    \
  X(double, transferBusySeconds, Deterministic) /* summed across engines */

struct MachineStats : counters::Table<MachineStats> {
  POLYPART_COUNTER_FIELDS(MachineStats, POLYPART_MACHINE_COUNTERS)
  bool operator==(const MachineStats&) const = default;
};
static_assert(sizeof(MachineStats) == MachineStats::kRowBytes);

class Machine {
 public:
  Machine(MachineSpec spec, ExecutionMode mode);

  const MachineSpec& spec() const { return spec_; }
  ExecutionMode mode() const { return mode_; }
  int deviceCount() const { return spec_.numDevices; }

  // -- simulated clock -------------------------------------------------------
  /// Current host time (seconds of simulated execution).
  double now() const { return hostNow_; }
  /// Adds host-side work (e.g. dependency-resolution cost) to the clock.
  void advanceHost(double seconds);
  /// Charges one driver API call of host overhead.
  void chargeApiCall();
  /// Blocks the host until all engines of all devices are idle
  /// (cudaDeviceSynchronize semantics).
  void synchronizeAll();
  /// Completion time of all outstanding work.
  double completionTime() const;

  // -- memory ----------------------------------------------------------------
  DevBuffer alloc(int device, i64 bytes);
  void free(DevBuffer b);
  i64 bufferBytes(DevBuffer b) const;
  /// Raw storage pointer (Functional mode only).
  void* bufferData(DevBuffer b);

  /// Asynchronous copies; `bytes` counted against link bandwidth.  Offsets
  /// are in bytes.  In Functional mode data moves immediately (issue order).
  void copyHostToDevice(DevBuffer dst, i64 dstOff, const void* src, i64 bytes);
  void copyDeviceToHost(void* dst, DevBuffer src, i64 srcOff, i64 bytes);
  /// Peer copy; returns the modeled completion time of the transfer.
  /// `notBefore` is an extra lower bound on the modeled start — the transfer
  /// scheduler passes the parent copy's completion so a chained broadcast
  /// copy never reads a replica before the model says it exists.
  double copyPeer(DevBuffer dst, i64 dstOff, DevBuffer src, i64 srcOff,
                  i64 bytes, double notBefore = 0);

  /// Accumulated busy seconds of the directed peer link src -> dst (pure
  /// bookkeeping: recorded in every mode, independent of modelPeerLinks).
  double linkBusySeconds(int src, int dst) const;

  // -- kernels ----------------------------------------------------------------
  /// Launches `kernel` asynchronously on `device`.  Buffer args must live on
  /// that device.  Timing uses the static cost model; Functional mode also
  /// executes the kernel (ir::execute) against device storage.  Returns the modeled
  /// completion time of the kernel (the dataflow planner passes it as the
  /// `notBefore` floor of eagerly issued downstream copies).
  double launchKernel(int device, const ir::Kernel& kernel,
                      const ir::LaunchConfig& cfg, std::span<const KernelArg> args,
                      const LaunchOptions& options = {});

  /// Device-ordering mode: the relaxed dependency discipline of planned
  /// launches.  The reactive runtime brackets every launch with
  /// synchronizeAll(), so engine readiness never has to encode cross-engine
  /// hazards.  A planned launch skips those global barriers; instead, while
  /// this mode is on, (a) kernels additionally wait for their own device's
  /// copy engines (transfers into the device land before compute reads
  /// them — RAW — and transfers out drain before compute overwrites the
  /// source — WAR), and (b) peer copies additionally wait for both endpoint
  /// devices' compute (the producing kernel finished writing the bytes) and
  /// occupy the source's copy-out engine.  Per-device ordering replaces the
  /// global barrier, which is exactly what lets transfers overlap *other*
  /// devices' kernels.  Functional results are unaffected (timing only).
  void setDeviceOrdering(bool on) { deviceOrdering_ = on; }
  bool deviceOrdering() const { return deviceOrdering_; }

  const MachineStats& stats() const { return stats_; }
  void resetStats() {
    stats_ = {};
    for (Device& d : devices_) d.kernelBusy = 0;
  }

  /// Attaches a tracer: every kernel and copy thereafter emits a sim-domain
  /// span on its engine's track (timestamps are simulated seconds, so the
  /// modeled compute/copy overlap is visible on a timeline).  Null detaches.
  /// Tracing never touches the clock, storage, or stats.
  void setTracer(trace::Tracer* tracer);

  // -- failure injection ------------------------------------------------------
  /// Marks `device` as failed.  Subsequent allocs, copies, and launches
  /// targeting it assert; its live Functional storage is poisoned with NaN
  /// so any read of lost data produces visibly wrong results instead of
  /// silently stale ones.  free() of its buffers stays permitted (the
  /// runtime releases handles during recovery).
  void failDevice(int device);
  bool deviceFailed(int device) const;
  /// Devices not marked failed.
  int liveDeviceCount() const;

  /// Kernel busy seconds accumulated on `device` (the load-rebalancing
  /// signal: modeled compute time actually consumed per device).
  double kernelBusySecondsForDevice(int device) const;

 private:
  struct Storage {
    i64 bytes = 0;
    std::vector<double> data;  // allocated in Functional mode only
    bool live = false;
  };
  struct Device {
    double computeReady = 0;
    double copyInReady = 0;
    double copyOutReady = 0;
    bool failed = false;
    double kernelBusy = 0;
    std::vector<Storage> buffers;
  };

  Storage& storage(DevBuffer b);
  const Storage& storage(DevBuffer b) const;
  double modeledBytes(i64 storageBytes) const;

  /// Reserves fabric time for a transfer; returns the earliest start.
  double reserveFabric(double earliestStart, double bytes);

  MachineSpec spec_;
  ExecutionMode mode_;
  double hostNow_ = 0;
  double fabricReady_ = 0;
  /// Per directed (src, dst) peer link, indexed src * numDevices + dst:
  /// ready time (used only when spec_.modelPeerLinks) and accumulated busy
  /// seconds (always recorded, for benches/tests observing link balance).
  std::vector<double> peerLinkReady_;
  std::vector<double> peerLinkBusy_;
  std::vector<Device> devices_;
  MachineStats stats_;
  bool deviceOrdering_ = false;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace polypart::sim
