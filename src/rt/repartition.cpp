// Elastic runtime repartitioning (extension; see DESIGN.md "Elastic
// repartitioning").
//
// The paper fixes the grid partitioning at construction.  repartition()
// changes a kernel's per-device weights between launches and migrates only
// the *transition set*: per destination device, its new write ranges minus
// its old ones, both from the kernel's own write enumerators under its last
// launch signature, clipped against live tracker ownership.  Correctness
// never depends on the migration — reads resolve against the tracker, so
// launches under the new geometry are byte-identical whether or not the
// transition bytes moved ahead of time — migration is what keeps the
// *first* post-transition launch from re-pulling a device's whole new share
// reactively.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "codegen/enumerator.h"
#include "rt/dataflow_plan.h"
#include "rt/runtime.h"
#include "rt/transfer_plan.h"
#include "support/error.h"
#include "support/trace.h"

namespace polypart::rt {

namespace {

/// Weights and totals are bounded so partitionWith's extent * (pre + w)
/// products keep the same overflow envelope as the seed's extent * numGpus.
constexpr i64 kMaxTotalWeight = i64{1} << 20;

}  // namespace

const Partitioning& Runtime::partitioning(const std::string& kernelName) const {
  return entry(kernelName).partitioning;
}

void Runtime::validatePartitioning(const Partitioning& next) const {
  if (next.weights.size() != static_cast<std::size_t>(config_.numGpus))
    throw Error("partitioning has " + std::to_string(next.weights.size()) +
                " weights for " + std::to_string(config_.numGpus) +
                " devices");
  i64 total = 0;
  for (int d = 0; d < config_.numGpus; ++d) {
    const i64 w = next.weights[static_cast<std::size_t>(d)];
    if (w < 0)
      throw Error("partitioning weight for device " + std::to_string(d) +
                  " is negative");
    // Checked one weight at a time, so the running total cannot wrap.
    if (w > kMaxTotalWeight)
      throw Error("partitioning weight " + std::to_string(w) + " for device " +
                  std::to_string(d) + " exceeds the supported maximum " +
                  std::to_string(kMaxTotalWeight));
    if (w > 0 && machine_->deviceFailed(d))
      throw Error("partitioning assigns weight to failed device " +
                  std::to_string(d));
    total += w;
  }
  if (total <= 0) throw Error("partitioning total weight is zero");
  if (total > kMaxTotalWeight)
    throw Error("partitioning total weight " + std::to_string(total) +
                " exceeds the supported maximum " +
                std::to_string(kMaxTotalWeight));
}

RepartitionResult Runtime::repartition(const std::string& kernelName,
                                       const Partitioning& next) {
  if (!config_.allowRepartitioning)
    throw Error(
        "runtime repartitioning is disabled "
        "(RuntimeConfig::allowRepartitioning / POLYPART_ALLOW_REPARTITIONING)");
  KernelEntry& ke = entry(kernelName);
  validatePartitioning(next);
  // A geometry change invalidates the compiled dataflow cycle: its flow
  // edges were enumerated under the *old* weights.
  if (planner_ != nullptr) planner_->reset();
  if (ke.partitioning == next) return {};  // no-op: weights unchanged
  trace::Span span(config_.tracer, "runtime", "repartition");
  const Partitioning prev = ke.partitioning;
  ke.partitioning = next;
  RepartitionResult res = migrateKernel(ke, prev, next);
  ++stats_.repartitions;
  stats_.repartitionCopies += res.copies;
  stats_.bytesRepartitioned += res.bytesMoved;
  stats_.bytesRepartitionFootprint += res.bytesFootprint;
  return res;
}

RepartitionResult Runtime::repartitionAll(const Partitioning& next) {
  RepartitionResult sum;
  for (auto& [name, ke] : kernels_) {
    RepartitionResult r = repartition(name, next);
    sum.bytesMoved += r.bytesMoved;
    sum.bytesFootprint += r.bytesFootprint;
    sum.copies += r.copies;
  }
  return sum;
}

Partitioning Runtime::loadBalancedPartitioning(const std::string& kernelName,
                                               i64 scale) const {
  const Partitioning& cur = entry(kernelName).partitioning;
  Partitioning out = cur;
  // Per-device speed estimate: a device that needed `busy` seconds for a
  // `w`-weighted share sustains w / busy weight units per second.  Weights
  // proportional to that equalize the modeled per-device kernel time.
  std::vector<double> speed(cur.weights.size(), 0.0);
  double sum = 0;
  for (int d = 0; d < config_.numGpus; ++d) {
    const std::size_t i = static_cast<std::size_t>(d);
    if (machine_->deviceFailed(d)) {
      out.weights[i] = 0;
      continue;
    }
    if (cur.weights[i] <= 0) continue;  // inactive: growth is explicit
    const double busy = machine_->kernelBusySecondsForDevice(d);
    if (busy <= 0) return cur;  // no measured load yet: keep the status quo
    speed[i] = static_cast<double>(cur.weights[i]) / busy;
    sum += speed[i];
  }
  if (sum <= 0) return cur;
  for (std::size_t i = 0; i < speed.size(); ++i)
    if (speed[i] > 0)
      out.weights[i] = std::max<i64>(
          1, std::llround(static_cast<double>(scale) * speed[i] / sum));
  return out;
}

RepartitionResult Runtime::migrateKernel(KernelEntry& ke,
                                         const Partitioning& prev,
                                         const Partitioning& next) {
  RepartitionResult res;
  // Without a recorded launch there is no concrete footprint to migrate;
  // the new weights simply apply to the next launch (its reads resolve
  // reactively against whatever layout H2D scatters produced).
  if (!ke.lastLaunch) return res;
  const LaunchSignature& last = *ke.lastLaunch;
  machine_->synchronizeAll();  // writers of the migrating bytes must land

  // Collected first, applied after: copies read pre-transition owners, and
  // tracker updates must not mutate segment maps a query is still walking.
  struct Move {
    VirtualBuffer* buf;
    i64 begin, end;
    int dst, src;
  };
  struct Assign {  // ownership change without a copy (dst already a sharer)
    VirtualBuffer* buf;
    i64 begin, end;
    int dst;
  };
  std::vector<Move> moves;
  std::vector<Assign> flips;

  // May-access writes have no write enumerator; their bytes stay where the
  // observed-write tracker updates put them and the next launch's reads
  // resolve reactively.
  for (const codegen::Enumerator& writer : ke.enumerators) {
    if (!writer.isWrite()) continue;
    VirtualBuffer* buf = last.buffers[writer.argIndex()];
    if (buf == nullptr) continue;
    for (int d = 0; d < config_.numGpus; ++d) {
      const ElemRanges now = footprintOn(ke, writer, last, d, next);
      if (now.empty()) continue;  // no new share: nothing arrives
      res.bytesFootprint += countElements(now) * kElemBytes;
      // Transition set: what the device will own under `next` but did not
      // own under `prev`.  The tracker clip below discards ranges the
      // device already holds.
      const ElemRanges diff =
          subtractRanges(now, footprintOn(ke, writer, last, d, prev));
      for (const auto& [rb, re] : diff) {
        buf->tracker_.query(
            rb * kElemBytes, re * kElemBytes,
            [&](i64 b, i64 e, Owner owner, u64 sharers) {
              ++stats_.trackerSegmentsVisited;
              if (owner < 0 || owner == d) return;  // undefined / already here
              if ((sharers & SegmentTracker::sharerBit(d)) != 0) {
                flips.push_back(Assign{buf, b, e, d});  // replica: no copy
                return;
              }
              moves.push_back(Move{buf, b, e, d, owner});
            });
      }
    }
  }

  i64 bytesQueued = 0;
  for (const Move& m : moves) bytesQueued += m.end - m.begin;
  res.bytesMoved = bytesQueued;
  if (config_.enableTransfers && !moves.empty()) {
    if (config_.transferScheduling) {
      TransferPlan plan;  // no chaining: transitions are already per-destination
      for (const Move& m : moves) plan.add(m.buf, m.dst, m.src, m.begin, m.end);
      const TransferPlanStats& ps = plan.issue(*machine_, config_.tracer);
      res.copies = ps.issued;
      res.bytesMoved = bytesQueued - ps.bytesSaved;
    } else {
      for (const Move& m : moves)
        issuePeerCopy(m.buf, m.dst, m.src, m.begin, m.end, res.copies,
                      "repartition-copy");
    }
  }

  // Ownership reflects the new layout only after the copies were issued
  // (they read the pre-transition owners).  In the β configuration
  // (enableTransfers off) the tracker still flips — mirroring how launches
  // update trackers without moving data there.
  for (const Assign& a : flips) a.buf->tracker_.update(a.begin, a.end, a.dst);
  for (const Move& m : moves) m.buf->tracker_.update(m.begin, m.end, m.dst);

  // Modeled host cost of assembling/issuing the transition, charged with the
  // same per-row coefficient as reactive transfer creation.
  const double rows = static_cast<double>(moves.size() + flips.size());
  chargeHost(kTransferIssueCostPerRow * rows, "repartition-issue",
             {"copies", static_cast<i64>(moves.size())});
  machine_->synchronizeAll();
  return res;
}

}  // namespace polypart::rt
