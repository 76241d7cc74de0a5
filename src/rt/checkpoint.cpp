// Runtime halves of the checkpoint/recovery extension (rt/checkpoint.h):
// Runtime::checkpoint() and Runtime::recoverDevice().

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "rt/checkpoint.h"
#include "rt/dataflow_plan.h"
#include "rt/runtime.h"
#include "support/error.h"
#include "support/trace.h"

namespace polypart::rt {

Checkpoint Runtime::checkpoint() {
  machine_->synchronizeAll();  // snapshots must see settled device data
  trace::Span span(config_.tracer, "runtime", "checkpoint");
  Checkpoint cp;
  for (const std::unique_ptr<VirtualBuffer>& buf : buffers_) {
    Checkpoint::BufferImage image;
    image.buf = buf.get();
    buf->tracker_.query(
        0, buf->bytes(), [&](i64 b, i64 e, Owner owner, u64 sharers) {
          if (owner < 0) return;  // never written: nothing to lose
          // A range with a second valid replica survives any single device
          // failure without the checkpoint; only exclusive ranges are saved.
          if ((sharers & ~SegmentTracker::sharerBit(owner)) != 0) return;
          if (machine_->deviceFailed(owner)) return;  // already lost
          Checkpoint::Segment seg;
          seg.begin = b;
          seg.end = e;
          seg.owner = owner;
          if (machine_->mode() == sim::ExecutionMode::Functional) {
            seg.data.resize(static_cast<std::size_t>(e - b));
            machine_->copyDeviceToHost(
                seg.data.data(),
                buf->instances_[static_cast<std::size_t>(owner)], b, e - b);
          } else {
            machine_->copyDeviceToHost(
                nullptr, buf->instances_[static_cast<std::size_t>(owner)], b,
                e - b);
          }
          stats_.bytesCheckpointed += e - b;
          image.segments.push_back(std::move(seg));
        });
    if (!image.segments.empty()) cp.images_.push_back(std::move(image));
  }
  machine_->synchronizeAll();
  ++stats_.checkpoints;
  return cp;
}

void Runtime::recoverDevice(int device, const Checkpoint& cp,
                            const Partitioning& next) {
  if (!config_.allowRepartitioning)
    throw Error(
        "device recovery requires repartitioning "
        "(RuntimeConfig::allowRepartitioning / POLYPART_ALLOW_REPARTITIONING)");
  if (device < 0 || device >= config_.numGpus)
    throw Error("recoverDevice: device ordinal " + std::to_string(device) +
                " out of range");
  if (!machine_->deviceFailed(device))
    throw Error("recoverDevice: device " + std::to_string(device) +
                " has not failed");
  validatePartitioning(next);  // rejects any weight on the failed device
  trace::Span span(config_.tracer, "runtime", "recover-device", {},
                   {{"device", device}});
  // Stale compiled cycles would replay transfers sourced from the dead
  // device, so recovery drops the plan.
  if (planner_ != nullptr) planner_->reset();

  // Restore target: the lowest-ordinal survivor with a share under `next`.
  int target = -1;
  for (int d = 0; d < config_.numGpus && target < 0; ++d)
    if (next.weights[static_cast<std::size_t>(d)] > 0) target = d;
  PP_ASSERT(target >= 0);  // validatePartitioning guarantees a nonzero total

  for (const std::unique_ptr<VirtualBuffer>& buf : buffers_) {
    // The checkpoint image recorded for this buffer, if any.
    const Checkpoint::BufferImage* image = nullptr;
    for (const Checkpoint::BufferImage& bi : cp.images_)
      if (bi.buf == buf.get()) {
        image = &bi;
        break;
      }

    // Pass 1 (collect, then apply): ranges the dead device owned.
    struct Lost {
      i64 begin, end;
      int adopt = -1;  // surviving sharer to re-own the range, -1 = restore
    };
    std::vector<Lost> lost;
    buf->tracker_.query(
        0, buf->bytes(), [&](i64 b, i64 e, Owner owner, u64 sharers) {
          if (owner != device) return;
          Lost l{b, e, -1};
          for (int d = 0; d < config_.numGpus; ++d) {
            if (d == device || machine_->deviceFailed(d)) continue;
            if ((sharers & SegmentTracker::sharerBit(d)) != 0) {
              l.adopt = d;
              break;
            }
          }
          lost.push_back(l);
        });

    for (const Lost& l : lost) {
      if (l.adopt >= 0) {
        // A live replica already holds the bytes: flip ownership, no copy.
        buf->tracker_.update(l.begin, l.end, l.adopt);
        stats_.bytesAdopted += l.end - l.begin;
        continue;
      }
      // Restore [begin, end) from the checkpoint's segments for this owner.
      i64 pos = l.begin;
      while (pos < l.end) {
        const Checkpoint::Segment* seg = nullptr;
        if (image != nullptr)
          for (const Checkpoint::Segment& s : image->segments)
            if (s.owner == device && s.begin <= pos && pos < s.end) {
              seg = &s;
              break;
            }
        if (seg == nullptr)
          throw Error("recoverDevice: bytes [" + std::to_string(pos) + ", " +
                      std::to_string(l.end) +
                      ") lost with device " + std::to_string(device) +
                      " are covered by neither a live replica nor the "
                      "checkpoint");
        const i64 e = std::min(l.end, seg->end);
        machine_->copyHostToDevice(
            buf->instances_[static_cast<std::size_t>(target)], pos,
            seg->data.empty() ? nullptr
                              : seg->data.data() + (pos - seg->begin),
            e - pos);
        buf->tracker_.update(pos, e, target);
        ++stats_.restoreCopies;
        stats_.bytesRestored += e - pos;
        trace::instant(config_.tracer, "transfer", "restore-copy",
                       {{"dst", target}, {"bytes", e - pos}});
        pos = e;
      }
    }

    // Forget every replica the dead device held on surviving owners' ranges.
    buf->tracker_.dropSharer(device);
  }
  machine_->synchronizeAll();
  ++stats_.recoveries;

  // Finally move every kernel onto the survivors.  The migration reads only
  // live owners (the tracker no longer names the dead device anywhere).
  repartitionAll(next);
}

}  // namespace polypart::rt
