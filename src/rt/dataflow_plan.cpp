#include "rt/dataflow_plan.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "codegen/enumerator.h"
#include "pset/ast.h"
#include "rt/footprint.h"
#include "rt/runtime.h"
#include "support/arith.h"

namespace polypart::rt {

using analysis::ArrayModel;
using analysis::KernelModel;
using codegen::PartitionTuple;
using pset::BasicSet;
using pset::Constraint;
using pset::Set;
using pset::Space;

DataflowPlanner::DataflowPlanner(int numGpus, PartitionFn partitionFor)
    : numGpus_(numGpus), partitionFor_(std::move(partitionFor)) {
  PP_ASSERT(numGpus_ >= 1 && partitionFor_ != nullptr);
}

DataflowPlanner::~DataflowPlanner() = default;

bool DataflowPlanner::Step::matches(const Step& o) const {
  return kernelTag == o.kernelTag && grid == o.grid && block == o.block &&
         scalars == o.scalars && buffers == o.buffers;
}

DataflowPlanner::Step DataflowPlanner::makeStep(
    const KernelModel& model, const void* kernelTag,
    const ir::LaunchConfig& cfg, std::span<VirtualBuffer* const> buffers,
    std::span<const i64> scalars) const {
  Step st;
  st.model = &model;
  st.kernelTag = kernelTag;
  st.grid = cfg.grid;
  st.block = cfg.block;
  st.scalars.assign(scalars.begin(), scalars.end());
  st.buffers.assign(buffers.begin(), buffers.end());
  return st;
}

std::size_t DataflowPlanner::detectPeriod() const {
  for (std::size_t p = 1; p <= kMaxPeriod; ++p) {
    if (history_.size() < 2 * p) break;
    bool match = true;
    const std::size_t n = history_.size();
    for (std::size_t i = 0; i < p && match; ++i)
      match = history_[n - p + i].matches(history_[n - 2 * p + i]);
    if (match) return p;
  }
  return 0;
}

// The concrete-footprint helpers (paramVec/canonSpace/rebase/evalShape/
// flatten) live in rt/footprint.h, shared with runtime repartitioning.
using footprint::canonSpace;
using footprint::evalShape;
using footprint::flatten;
using footprint::Flattened;
using footprint::paramVec;
using footprint::rebase;

bool DataflowPlanner::compilePlan() {
  const std::size_t p = cycle_.size();
  edgesByStep_.assign(p, {});
  // The may-access tier keeps the whole cycle reactive: its write sets are
  // observed, not modeled, so there is no static write map to compose, and
  // its read over-approximations would compile into whole-buffer prefetches
  // that defeat the inspector's exact footprints.
  for (const Step& st : cycle_)
    for (const ArrayModel& a : st.model->arrays)
      if (a.writeMayAccess || a.readMayAccess)
        return false;

  for (std::size_t s = 0; s < p; ++s) {
    const Step& prod = cycle_[s];
    const std::vector<i64> prodParams =
        paramVec(prod.grid, prod.block, prod.scalars);
    for (const ArrayModel& wa : prod.model->arrays) {
      if (!wa.hasWrites()) continue;
      VirtualBuffer* buf = prod.buffers[wa.argIndex];
      if (buf == nullptr) continue;
      std::optional<std::vector<i64>> prodDims =
          evalShape(wa, prodParams, buf->bytes(), kElemBytes);
      if (!prodDims) continue;
      i64 totalElems = 1;
      try {
        for (i64 d : *prodDims) totalElems = checkedMul(totalElems, d);
      } catch (...) {
        continue;
      }
      totalElems = std::min(totalElems, buf->bytes() / kElemBytes);
      const Space canon = canonSpace(prodDims->size());

      // This step's concrete write set per producing device.
      std::vector<Set> wsets;
      wsets.reserve(static_cast<std::size_t>(numGpus_));
      for (int g = 0; g < numGpus_; ++g) {
        ir::GridPartition gp = partitionFor_(*prod.model, prod.grid, g);
        if (gp.blockCount() == 0) {
          wsets.emplace_back(canon);
          continue;
        }
        PartitionTuple t = PartitionTuple::fromBlocks(gp, prod.block);
        wsets.push_back(
            rebase(wa.write.rangeUnderBox(prodParams, t.lo, t.hi), canon));
      }

      // Walk the downstream steps cyclically.  Reads at distance d consume
      // against the writes accumulated at distances 1..d-1 (the kill set);
      // d == p wraps to the producer's own next iteration (its re-reads are
      // flow too; its writes are this step's own, not a kill).
      Set kill(canon);
      for (std::size_t d = 1; d <= p; ++d) {
        const std::size_t c = (s + d) % p;
        const Step& cons = cycle_[c];
        const std::vector<i64> consParams =
            paramVec(cons.grid, cons.block, cons.scalars);

        for (const ArrayModel& ra : cons.model->arrays) {
          if (!ra.hasReads()) continue;
          if (cons.buffers[ra.argIndex] != buf) continue;
          std::optional<std::vector<i64>> consDims =
              evalShape(ra, consParams, buf->bytes(), kElemBytes);
          // Incompatible flattening geometries cannot be related statically;
          // skip the edge (the reactive path still moves the bytes).
          if (!consDims || *consDims != *prodDims) continue;

          FlowEdge edge;
          edge.producerStep = s;
          edge.consumerStep = c;
          edge.argIndex = wa.argIndex;
          bool ok = true;
          for (int gDst = 0; gDst < numGpus_ && gDst < 64 && ok; ++gDst) {
            ir::GridPartition gp = partitionFor_(*cons.model, cons.grid, gDst);
            if (gp.blockCount() == 0) continue;
            PartitionTuple t = PartitionTuple::fromBlocks(gp, cons.block);
            Set rset =
                rebase(ra.read.rangeUnderBox(consParams, t.lo, t.hi), canon);
            if (rset.parts().empty()) continue;
            for (int gSrc = 0; gSrc < numGpus_ && ok; ++gSrc) {
              if (gSrc == gDst) continue;
              Set flow = wsets[static_cast<std::size_t>(gSrc)].intersect(rset);
              flow.pruneEmptyParts();
              if (flow.parts().empty()) continue;
              Set live = flow.subtract(kill);
              live.pruneEmptyParts();
              std::optional<Flattened> flowFlat =
                  flatten(flow, *prodDims, totalElems, kMaxRangesPerEdge);
              std::optional<Flattened> liveFlat =
                  flatten(live, *prodDims, totalElems, kMaxRangesPerEdge);
              if (!flowFlat || !liveFlat) {
                ok = false;
                break;
              }
              edge.elidedBytes +=
                  (flowFlat->elems - liveFlat->elems) * kElemBytes;
              if (!liveFlat->ranges.empty()) {
                PlannedTransfer pt;
                pt.src = gSrc;
                pt.dst = gDst;
                pt.byteRanges.reserve(liveFlat->ranges.size());
                for (const auto& [b, e] : liveFlat->ranges)
                  pt.byteRanges.emplace_back(b * kElemBytes, e * kElemBytes);
                edge.transfers.push_back(std::move(pt));
              }
            }
          }
          if (ok && (!edge.transfers.empty() || edge.elidedBytes > 0))
            edgesByStep_[s].push_back(std::move(edge));
        }

        if (d == p) break;
        for (const ArrayModel& wa2 : cons.model->arrays) {
          if (!wa2.hasWrites()) continue;
          if (cons.buffers[wa2.argIndex] != buf) continue;
          std::optional<std::vector<i64>> killDims =
              evalShape(wa2, consParams, buf->bytes(), kElemBytes);
          // A write we cannot relate to the producer's geometry is simply
          // not subtracted — elision only ever under-fires (safe: the
          // tracker clip at issue time discards any stale prefetch).
          if (!killDims || *killDims != *prodDims) continue;
          for (int g = 0; g < numGpus_; ++g) {
            ir::GridPartition gp = partitionFor_(*cons.model, cons.grid, g);
            if (gp.blockCount() == 0) continue;
            PartitionTuple t = PartitionTuple::fromBlocks(gp, cons.block);
            kill = kill.unionWith(
                rebase(wa2.write.rangeUnderBox(consParams, t.lo, t.hi), canon));
          }
        }
      }
    }
  }
  return true;
}

DataflowPlanner::Observation DataflowPlanner::observe(
    const KernelModel& model, const void* kernelTag,
    const ir::LaunchConfig& cfg, std::span<VirtualBuffer* const> buffers,
    std::span<const i64> scalars) {
  Observation obs;
  Step sig = makeStep(model, kernelTag, cfg, buffers, scalars);

  if (active_) {
    if (sig.matches(cycle_[pos_])) {
      obs.planned = true;
      obs.step = pos_;
      pos_ = (pos_ + 1) % cycle_.size();
      return obs;
    }
    // Off-plan launch: degrade to reactive and start recording afresh (the
    // application may settle into a new cycle, e.g. after a phase change).
    obs.diverged = true;
    active_ = false;
    cycle_.clear();
    edgesByStep_.clear();
    history_.clear();
    history_.push_back(std::move(sig));
    return obs;
  }

  history_.push_back(std::move(sig));
  if (history_.size() > kMaxHistory)
    history_.erase(history_.begin());
  const std::size_t p = detectPeriod();
  if (p == 0) return obs;
  cycle_.assign(history_.end() - static_cast<std::ptrdiff_t>(p),
                history_.end());
  if (!compilePlan()) {
    cycle_.clear();
    edgesByStep_.clear();
    return obs;
  }
  active_ = true;
  pos_ = 0;  // the activating launch ran reactively; the next one is step 0
  history_.clear();
  obs.activated = true;
  return obs;
}

const std::vector<FlowEdge>& DataflowPlanner::edgesFor(std::size_t step) const {
  PP_ASSERT(active_ && step < edgesByStep_.size());
  return edgesByStep_[step];
}

void DataflowPlanner::reset() {
  history_.clear();
  cycle_.clear();
  edgesByStep_.clear();
  active_ = false;
  pos_ = 0;
}

}  // namespace polypart::rt
