#include "sim/machine.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "support/error.h"
#include "support/trace.h"

namespace polypart::sim {

Machine::Machine(MachineSpec spec, ExecutionMode mode)
    : spec_(spec), mode_(mode), devices_(static_cast<std::size_t>(spec.numDevices)) {
  PP_ASSERT(spec.numDevices >= 1);
  const std::size_t n = static_cast<std::size_t>(spec.numDevices);
  peerLinkReady_.assign(n * n, 0);
  peerLinkBusy_.assign(n * n, 0);
}

double Machine::linkBusySeconds(int src, int dst) const {
  PP_ASSERT(src >= 0 && src < spec_.numDevices && dst >= 0 &&
            dst < spec_.numDevices);
  return peerLinkBusy_[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(spec_.numDevices) +
                       static_cast<std::size_t>(dst)];
}

void Machine::setTracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer == nullptr) return;
  tracer->nameSimTrack(kSimHostTrack, "host resolution (modeled)");
  for (int d = 0; d < spec_.numDevices; ++d) {
    const std::string dev = "gpu" + std::to_string(d);
    tracer->nameSimTrack(simComputeTrack(d), dev + " compute");
    tracer->nameSimTrack(simCopyInTrack(d), dev + " copy-in");
    tracer->nameSimTrack(simCopyOutTrack(d), dev + " copy-out");
  }
}

void Machine::advanceHost(double seconds) {
  PP_ASSERT(seconds >= 0);
  hostNow_ += seconds;
}

void Machine::chargeApiCall() {
  hostNow_ += spec_.host.apiOverhead;
  ++stats_.apiCalls;
}

double Machine::completionTime() const {
  double t = std::max(hostNow_, fabricReady_);
  for (const Device& d : devices_) {
    t = std::max(t, d.computeReady);
    t = std::max(t, d.copyInReady);
    t = std::max(t, d.copyOutReady);
  }
  return t;
}

void Machine::synchronizeAll() {
  chargeApiCall();
  hostNow_ = completionTime();
}

Machine::Storage& Machine::storage(DevBuffer b) {
  PP_ASSERT(b.valid() && b.device < spec_.numDevices);
  Device& d = devices_[static_cast<std::size_t>(b.device)];
  PP_ASSERT(b.id < d.buffers.size() && d.buffers[b.id].live);
  return d.buffers[b.id];
}

const Machine::Storage& Machine::storage(DevBuffer b) const {
  return const_cast<Machine*>(this)->storage(b);
}

void Machine::failDevice(int device) {
  PP_ASSERT(device >= 0 && device < spec_.numDevices);
  Device& d = devices_[static_cast<std::size_t>(device)];
  PP_ASSERT_MSG(!d.failed, "device already failed");
  d.failed = true;
  // Poison, don't clear: a failed device's memory is gone, and any read of
  // lost data must produce visibly wrong results rather than silently stale
  // ones.  Handles stay live so the runtime can release them during recovery.
  if (mode_ == ExecutionMode::Functional) {
    for (Storage& s : d.buffers) {
      if (!s.live) continue;
      std::fill(s.data.begin(), s.data.end(),
                std::numeric_limits<double>::quiet_NaN());
    }
  }
}

bool Machine::deviceFailed(int device) const {
  PP_ASSERT(device >= 0 && device < spec_.numDevices);
  return devices_[static_cast<std::size_t>(device)].failed;
}

int Machine::liveDeviceCount() const {
  int n = 0;
  for (const Device& d : devices_)
    if (!d.failed) ++n;
  return n;
}

double Machine::kernelBusySecondsForDevice(int device) const {
  PP_ASSERT(device >= 0 && device < spec_.numDevices);
  return devices_[static_cast<std::size_t>(device)].kernelBusy;
}

DevBuffer Machine::alloc(int device, i64 bytes) {
  PP_ASSERT(device >= 0 && device < spec_.numDevices && bytes >= 0);
  PP_ASSERT_MSG(!devices_[static_cast<std::size_t>(device)].failed,
                "alloc on a failed device");
  chargeApiCall();
  Device& d = devices_[static_cast<std::size_t>(device)];
  Storage s;
  s.bytes = bytes;
  s.live = true;
  if (mode_ == ExecutionMode::Functional)
    s.data.assign(static_cast<std::size_t>((bytes + 7) / 8), 0.0);
  // Reuse a dead slot when available.
  for (std::size_t i = 0; i < d.buffers.size(); ++i) {
    if (!d.buffers[i].live) {
      d.buffers[i] = std::move(s);
      return DevBuffer{device, i};
    }
  }
  d.buffers.push_back(std::move(s));
  return DevBuffer{device, d.buffers.size() - 1};
}

void Machine::free(DevBuffer b) {
  chargeApiCall();
  Storage& s = storage(b);
  s.live = false;
  s.data.clear();
  s.data.shrink_to_fit();
}

i64 Machine::bufferBytes(DevBuffer b) const { return storage(b).bytes; }

void* Machine::bufferData(DevBuffer b) {
  PP_ASSERT_MSG(mode_ == ExecutionMode::Functional,
                "buffer contents exist only in Functional mode");
  return storage(b).data.data();
}

double Machine::reserveFabric(double earliestStart, double bytes) {
  // The shared fabric caps aggregate transfer throughput: each transfer
  // appends its byte time to a backlog that drains from the current host
  // time onward.  A transfer may start no earlier than the backlog position,
  // but a transfer that is late for other reasons (busy destination engine)
  // does not block the fabric for others — only byte time accumulates.
  double avail = std::max(fabricReady_, hostNow_);
  fabricReady_ = avail + bytes / spec_.fabricBandwidth;
  return std::max(earliestStart, avail);
}

double Machine::modeledBytes(i64 storageBytes) const {
  // Functional storage is 8 bytes per element while the modeled workloads
  // are single-precision; timing and byte counters use the modeled width.
  return static_cast<double>(storageBytes) * (spec_.bytesPerElement / 8.0);
}

void Machine::copyHostToDevice(DevBuffer dst, i64 dstOff, const void* src, i64 bytes) {
  chargeApiCall();
  if (bytes <= 0) return;
  PP_ASSERT_MSG(!devices_[static_cast<std::size_t>(dst.device)].failed,
                "copy to a failed device");
  Storage& s = storage(dst);
  PP_ASSERT(dstOff >= 0 && dstOff + bytes <= s.bytes);
  if (mode_ == ExecutionMode::Functional && src != nullptr)
    std::memcpy(reinterpret_cast<char*>(s.data.data()) + dstOff, src,
                static_cast<std::size_t>(bytes));
  Device& d = devices_[static_cast<std::size_t>(dst.device)];
  double mb = modeledBytes(bytes);
  double start = reserveFabric(std::max(hostNow_, d.copyInReady), mb);
  double duration = spec_.hostLink.latency + mb / spec_.hostLink.bandwidth;
  d.copyInReady = start + duration;
  stats_.transferBusySeconds += duration;
  ++stats_.transfers;
  stats_.bytesHostToDevice += mb;
  trace::simSpan(tracer_, "sim.copy", "h2d", simCopyInTrack(dst.device), start,
                 duration, {{"dst", dst.device}, {"bytes", bytes}});
}

void Machine::copyDeviceToHost(void* dst, DevBuffer src, i64 srcOff, i64 bytes) {
  chargeApiCall();
  if (bytes <= 0) return;
  PP_ASSERT_MSG(!devices_[static_cast<std::size_t>(src.device)].failed,
                "copy from a failed device");
  Storage& s = storage(src);
  PP_ASSERT(srcOff >= 0 && srcOff + bytes <= s.bytes);
  if (mode_ == ExecutionMode::Functional && dst != nullptr)
    std::memcpy(dst, reinterpret_cast<const char*>(s.data.data()) + srcOff,
                static_cast<std::size_t>(bytes));
  Device& d = devices_[static_cast<std::size_t>(src.device)];
  double mb = modeledBytes(bytes);
  double start = reserveFabric(std::max(hostNow_, d.copyOutReady), mb);
  double duration = spec_.hostLink.latency + mb / spec_.hostLink.bandwidth;
  d.copyOutReady = start + duration;
  stats_.transferBusySeconds += duration;
  ++stats_.transfers;
  stats_.bytesDeviceToHost += mb;
  trace::simSpan(tracer_, "sim.copy", "d2h", simCopyOutTrack(src.device), start,
                 duration, {{"src", src.device}, {"bytes", bytes}});
}

double Machine::copyPeer(DevBuffer dst, i64 dstOff, DevBuffer src, i64 srcOff,
                         i64 bytes, double notBefore) {
  chargeApiCall();
  if (bytes <= 0) return hostNow_;
  PP_ASSERT_MSG(!devices_[static_cast<std::size_t>(dst.device)].failed &&
                    !devices_[static_cast<std::size_t>(src.device)].failed,
                "peer copy touching a failed device");
  Storage& sd = storage(dst);
  Storage& ss = storage(src);
  PP_ASSERT(dstOff >= 0 && dstOff + bytes <= sd.bytes);
  PP_ASSERT(srcOff >= 0 && srcOff + bytes <= ss.bytes);
  if (mode_ == ExecutionMode::Functional)
    std::memcpy(reinterpret_cast<char*>(sd.data.data()) + dstOff,
                reinterpret_cast<const char*>(ss.data.data()) + srcOff,
                static_cast<std::size_t>(bytes));
  // A peer transfer is driven by the destination's DMA engine
  // (cudaMemcpyPeerAsync semantics): the source's memory is read directly,
  // its copy engine stays free.  Aggregate pressure is captured by the
  // shared fabric.  With spec_.modelPeerLinks the topology is tighter: the
  // directed link serializes its own transfers, and the source's copy-out
  // engine is occupied streaming its memory out.
  Device& dDst = devices_[static_cast<std::size_t>(dst.device)];
  Device& dSrc = devices_[static_cast<std::size_t>(src.device)];
  const std::size_t link = static_cast<std::size_t>(src.device) *
                               static_cast<std::size_t>(spec_.numDevices) +
                           static_cast<std::size_t>(dst.device);
  double mb = modeledBytes(bytes);
  double duration = spec_.peerLink.latency + mb / spec_.peerLink.bandwidth;
  double start = std::max({hostNow_, dDst.copyInReady, notBefore});
  if (spec_.modelPeerLinks)
    start = std::max({start, dSrc.copyOutReady, peerLinkReady_[link]});
  if (deviceOrdering_)
    // No global barrier ordered this copy after the kernels that produced
    // (src) or consumed (dst) the bytes; wait on both compute engines, and
    // occupy the source's copy-out engine so a later kernel there cannot be
    // modeled to overwrite memory still streaming out (see setDeviceOrdering).
    start = std::max({start, dSrc.computeReady, dDst.computeReady,
                      dSrc.copyOutReady});
  start = reserveFabric(start, mb);
  dDst.copyInReady = start + duration;
  if (spec_.modelPeerLinks || deviceOrdering_) dSrc.copyOutReady = start + duration;
  if (spec_.modelPeerLinks) peerLinkReady_[link] = start + duration;
  peerLinkBusy_[link] += duration;
  stats_.transferBusySeconds += duration;
  ++stats_.transfers;
  stats_.bytesPeerToPeer += mb;
  trace::simSpan(tracer_, "sim.copy", "p2p", simCopyInTrack(dst.device), start,
                 duration,
                 {{"src", src.device}, {"dst", dst.device}, {"bytes", bytes}});
  return start + duration;
}

double Machine::launchKernel(int device, const ir::Kernel& kernel,
                             const ir::LaunchConfig& cfg,
                             std::span<const KernelArg> args,
                             const LaunchOptions& options) {
  PP_ASSERT(device >= 0 && device < spec_.numDevices);
  PP_ASSERT_MSG(!devices_[static_cast<std::size_t>(device)].failed,
                "kernel launch on a failed device");
  chargeApiCall();
  ++stats_.kernelLaunches;

  // Bind arguments for execution / the cost model.
  std::vector<ir::ArgValue> bound;
  bound.reserve(args.size());
  for (const KernelArg& a : args) {
    if (a.isBuffer) {
      PP_ASSERT_MSG(a.buffer.device == device,
                    "kernel argument buffer lives on a different device");
      Storage& s = storage(a.buffer);
      void* data = mode_ == ExecutionMode::Functional ? s.data.data() : nullptr;
      bound.push_back(ir::ArgValue::ofBuffer(data, s.bytes / 8));
    } else {
      bound.push_back(ir::ArgValue{a.scalar, nullptr, 0});
    }
  }

  // Timing: per-thread cost scaled by thread count, roofline-style.  A
  // heterogeneous spec (MachineSpec::perDevice) gives each device its own
  // throughput numbers.
  const DeviceSpec& dev = spec_.deviceSpec(device);
  ir::ThreadCost tc = ir::estimateThreadCost(kernel, cfg, bound);
  double threads = static_cast<double>(cfg.grid.count()) *
                   static_cast<double>(cfg.block.count());
  double flopTime = tc.flops * threads / dev.flops;
  // Loads are divided by the kernel's declared on-chip reuse (tiling /
  // cache hits); stores always reach DRAM.
  double memTime = (tc.loads / kernel.loadReuse() + tc.stores) * threads *
                   spec_.bytesPerElement / dev.memBandwidth;
  double duration =
      dev.launchLatency + options.costMultiplier * std::max(flopTime, memTime);

  Device& d = devices_[static_cast<std::size_t>(device)];
  double start = std::max(hostNow_, d.computeReady);
  if (deviceOrdering_)
    // Without the global barriers, in-flight copies into/out of this device
    // carry the launch's RAW/WAR edges (see setDeviceOrdering).
    start = std::max({start, d.copyInReady, d.copyOutReady});
  d.computeReady = start + duration;
  stats_.kernelBusySeconds += duration;
  d.kernelBusy += duration;
  trace::simSpan(tracer_, "sim.kernel", kernel.name(), simComputeTrack(device),
                 start, duration,
                 {{"device", device}, {"blocks", cfg.grid.count()}});

  if (mode_ == ExecutionMode::Functional)
    ir::execute(kernel, cfg, bound,
                options.observer ? *options.observer : ir::AccessObserver());
  return start + duration;
}

}  // namespace polypart::sim
