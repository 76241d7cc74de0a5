#include "rt/uvm_baseline.h"

#include <algorithm>

#include "rt/runtime.h"
#include "support/error.h"

namespace polypart::rt {

using analysis::KernelModel;
using codegen::Enumerator;
using codegen::PartitionTuple;
using ir::Dim3;
using ir::GridPartition;
using ir::LaunchConfig;

UvmRuntime::UvmRuntime(UvmConfig config, analysis::ApplicationModel model,
                       const ir::Module& kernels)
    : config_(config), model_(std::move(model)) {
  config_.machine.numDevices = config_.numGpus;
  machine_ = std::make_unique<sim::Machine>(config_.machine,
                                            sim::ExecutionMode::TimingOnly);
  for (const KernelModel& km : model_.kernels) {
    ir::KernelPtr k = kernels.find(km.kernel);
    PP_ASSERT(k != nullptr);
    KernelEntry ke;
    ke.model = &km;
    ke.partitioned = ir::partitionKernel(*k);
    ke.enumerators = codegen::buildEnumerators(km);
    kernels_.emplace(km.kernel, std::move(ke));
  }
}

UvmRuntime::~UvmRuntime() = default;

UvmBuffer* UvmRuntime::malloc(i64 bytes) {
  std::vector<sim::DevBuffer> instances;
  for (int d = 0; d < config_.numGpus; ++d)
    instances.push_back(machine_->alloc(d, bytes));
  buffers_.push_back(std::unique_ptr<UvmBuffer>(
      new UvmBuffer(bytes, config_.pageBytes, std::move(instances))));
  return buffers_.back().get();
}

void UvmRuntime::free(UvmBuffer* buf) {
  for (auto it = buffers_.begin(); it != buffers_.end(); ++it) {
    if (it->get() == buf) {
      for (const sim::DevBuffer& b : buf->instances_) machine_->free(b);
      buffers_.erase(it);
      return;
    }
  }
  PP_ASSERT(false);
}

void UvmRuntime::populate(UvmBuffer* buf, i64 bytes) {
  const i64 pages = (std::min(bytes, buf->bytes_) + config_.pageBytes - 1) /
                    config_.pageBytes;
  for (i64 p = 0; p < pages; ++p)
    buf->pageOwner_[static_cast<std::size_t>(p)] = -1;  // host-resident
  machine_->chargeApiCall();
}

void UvmRuntime::launch(const std::string& kernelName, const Dim3& grid,
                        const Dim3& block, std::span<UvmBuffer* const> arrayArgs,
                        std::span<const i64> scalarArgs) {
  auto it = kernels_.find(kernelName);
  PP_ASSERT_MSG(it != kernels_.end(), "launch of unknown kernel");
  const KernelEntry& ke = it->second;
  const KernelModel& model = *ke.model;
  ++stats_.launches;

  // Map model array arguments to the caller's UvmBuffers in order.
  std::map<std::size_t, UvmBuffer*> byArg;
  std::size_t next = 0;
  for (const analysis::ArrayModel& am : model.arrays) {
    PP_ASSERT(next < arrayArgs.size());
    byArg[am.argIndex] = arrayArgs[next++];
  }

  // Kernels must not start before the pages they fault on have been written
  // by their producers: unified memory serializes through the fault handler,
  // which is modeled by draining outstanding work first.
  machine_->synchronizeAll();

  const int g = config_.numGpus;
  for (int gpu = 0; gpu < g; ++gpu) {
    GridPartition gp{{0, 0, 0}, grid};
    auto chunk = [&](i64 extent, i64& lo, i64& hi) {
      lo = extent * gpu / g;
      hi = extent * (gpu + 1) / g;
    };
    switch (model.strategy) {
      case analysis::PartitionStrategy::SplitX: chunk(grid.x, gp.lo.x, gp.hi.x); break;
      case analysis::PartitionStrategy::SplitY: chunk(grid.y, gp.lo.y, gp.hi.y); break;
      case analysis::PartitionStrategy::SplitZ: chunk(grid.z, gp.lo.z, gp.hi.z); break;
    }
    if (gp.blockCount() == 0) continue;
    PartitionTuple tuple = PartitionTuple::fromBlocks(gp, block);
    LaunchConfig cfg{grid, block};

    // Demand faults: every page the partition touches migrates to this GPU
    // (migrate-on-touch; reads steal pages from other readers too).
    i64 faults = 0;
    for (const Enumerator& e : ke.enumerators) {
      UvmBuffer* vb = byArg[e.argIndex()];
      PP_ASSERT(vb != nullptr);
      e.enumerate(tuple, cfg, scalarArgs, [&](i64 elemB, i64 elemE) {
        i64 firstPage = elemB * kElemBytes / config_.pageBytes;
        i64 lastPage = (elemE * kElemBytes - 1) / config_.pageBytes;
        for (i64 p = firstPage; p <= lastPage; ++p) {
          int& owner = vb->pageOwner_[static_cast<std::size_t>(p)];
          if (owner == gpu) continue;
          // The final page of a buffer may be partial.
          i64 pageLen = std::min(config_.pageBytes,
                                 vb->bytes_ - p * config_.pageBytes);
          ++faults;
          ++stats_.pageFaults;
          ++stats_.pagesMigrated;
          stats_.bytesMigrated += pageLen;
          if (owner < 0) {
            machine_->copyHostToDevice(vb->instances_[static_cast<std::size_t>(gpu)],
                                       p * config_.pageBytes, nullptr, pageLen);
          } else {
            machine_->copyPeer(vb->instances_[static_cast<std::size_t>(gpu)],
                               p * config_.pageBytes,
                               vb->instances_[static_cast<std::size_t>(owner)],
                               p * config_.pageBytes, pageLen);
          }
          owner = gpu;
        }
      });
    }
    // Fault-handling latency, batched by the driver, stalls the kernel.
    machine_->advanceHost(static_cast<double>(faults) * config_.faultLatency /
                          config_.faultBatchFactor);

    LaunchConfig partCfg{{gp.hi.x - gp.lo.x, gp.hi.y - gp.lo.y, gp.hi.z - gp.lo.z},
                         block};
    std::vector<sim::KernelArg> kargs;
    std::size_t arrIdx = 0;
    for (const analysis::ParamInfo& p : model.params) {
      if (p.isArray) {
        UvmBuffer* vb = arrayArgs[arrIdx++];
        kargs.push_back(sim::KernelArg::ofBuffer(
            vb->instances_[static_cast<std::size_t>(gpu)]));
      } else if (p.type == ir::Type::I64) {
        kargs.push_back(sim::KernelArg::ofInt(
            scalarArgs[p.modelParamIndex - analysis::kFixedParams]));
      } else {
        kargs.push_back(sim::KernelArg::ofFloat(0.0));
      }
    }
    for (i64 v : {gp.lo.x, gp.lo.y, gp.lo.z, gp.hi.x, gp.hi.y, gp.hi.z})
      kargs.push_back(sim::KernelArg::ofInt(v));
    machine_->launchKernel(gpu, *ke.partitioned, partCfg, kargs);
  }
}

void UvmRuntime::synchronize() { machine_->synchronizeAll(); }

double UvmRuntime::elapsedSeconds() const { return machine_->completionTime(); }

}  // namespace polypart::rt
