#include "rt/dataflow_plan.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace polypart::rt {

using analysis::ArrayModel;

namespace {

ElemRanges intersectRanges(const ElemRanges& a, const ElemRanges& b) {
  ElemRanges out;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const i64 lo = std::max(a[i].first, b[j].first);
    const i64 hi = std::min(a[i].second, b[j].second);
    if (lo < hi) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second)
      ++i;
    else
      ++j;
  }
  return out;
}

ElemRanges unionRanges(const ElemRanges& a, const ElemRanges& b) {
  ElemRanges all;
  all.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(all));
  ElemRanges out;
  for (const auto& [lo, hi] : all) {
    if (!out.empty() && lo <= out.back().second)
      out.back().second = std::max(out.back().second, hi);
    else
      out.emplace_back(lo, hi);
  }
  return out;
}

}  // namespace

ElemRanges subtractRanges(const ElemRanges& a, const ElemRanges& b) {
  ElemRanges out;
  std::size_t j = 0;
  for (auto [lo, hi] : a) {
    while (j < b.size() && b[j].second <= lo) ++j;
    for (std::size_t k = j; k < b.size() && b[k].first < hi && lo < hi; ++k) {
      if (b[k].first > lo) out.emplace_back(lo, b[k].first);
      lo = std::max(lo, b[k].second);
    }
    if (lo < hi) out.emplace_back(lo, hi);
  }
  return out;
}

i64 countElements(const ElemRanges& r) {
  i64 n = 0;
  for (const auto& [lo, hi] : r) n += hi - lo;
  return n;
}

DataflowPlanner::DataflowPlanner(int numGpus, FootprintFn footprints)
    : numGpus_(numGpus), footprints_(std::move(footprints)) {
  PP_ASSERT(numGpus_ >= 1 && footprints_ != nullptr);
}

DataflowPlanner::~DataflowPlanner() = default;

std::size_t DataflowPlanner::detectPeriod() const {
  for (std::size_t p = 1; p <= kMaxPeriod; ++p) {
    if (history_.size() < 2 * p) break;
    bool match = true;
    const std::size_t n = history_.size();
    for (std::size_t i = 0; i < p && match; ++i)
      match = history_[n - p + i] == history_[n - 2 * p + i];
    if (match) return p;
  }
  return 0;
}

bool DataflowPlanner::compilePlan() {
  const std::size_t p = cycle_.size();
  edgesByStep_.assign(p, {});
  // The may-access tier keeps the whole cycle reactive: its write sets are
  // observed, not modeled, so there is no static write map to compose, and
  // its read over-approximations would compile into whole-buffer prefetches
  // that defeat the inspector's exact footprints.
  for (const LaunchSignature& st : cycle_)
    for (const ArrayModel& a : st.model->arrays)
      if (a.writeMayAccess || a.readMayAccess)
        return false;

  // Every step's per-device footprints, enumerated once per plan.
  std::vector<std::vector<AccessFootprint>> fps;
  fps.reserve(p);
  for (const LaunchSignature& st : cycle_) fps.push_back(footprints_(st));

  for (std::size_t s = 0; s < p; ++s) {
    const LaunchSignature& prod = cycle_[s];
    for (const AccessFootprint& w : fps[s]) {
      if (!w.isWrite) continue;
      VirtualBuffer* buf = prod.buffers[w.argIndex];
      if (buf == nullptr) continue;

      // Walk the downstream steps cyclically.  Reads at distance d consume
      // against the writes accumulated at distances 1..d-1 (the kill set);
      // d == p wraps to the producer's own next iteration (its re-reads are
      // flow too; its writes are this step's own, not a kill).
      ElemRanges kill;
      for (std::size_t d = 1; d <= p; ++d) {
        const std::size_t c = (s + d) % p;
        const LaunchSignature& cons = cycle_[c];
        for (const AccessFootprint& r : fps[c]) {
          if (r.isWrite || cons.buffers[r.argIndex] != buf) continue;
          FlowEdge edge;
          edge.producerStep = s;
          edge.consumerStep = c;
          edge.argIndex = w.argIndex;
          for (int gDst = 0; gDst < numGpus_ && gDst < 64; ++gDst) {
            const ElemRanges& reads = r.perGpu[static_cast<std::size_t>(gDst)];
            if (reads.empty()) continue;
            for (int gSrc = 0; gSrc < numGpus_; ++gSrc) {
              if (gSrc == gDst) continue;
              const ElemRanges flow = intersectRanges(
                  w.perGpu[static_cast<std::size_t>(gSrc)], reads);
              if (flow.empty()) continue;
              const ElemRanges live = subtractRanges(flow, kill);
              edge.elidedBytes +=
                  (countElements(flow) - countElements(live)) * kElemBytes;
              if (live.empty()) continue;
              PlannedTransfer pt;
              pt.src = gSrc;
              pt.dst = gDst;
              pt.byteRanges.reserve(live.size());
              for (const auto& [b, e] : live)
                pt.byteRanges.emplace_back(b * kElemBytes, e * kElemBytes);
              edge.transfers.push_back(std::move(pt));
            }
          }
          if (!edge.transfers.empty() || edge.elidedBytes > 0)
            edgesByStep_[s].push_back(std::move(edge));
        }

        if (d == p) break;
        for (const AccessFootprint& k : fps[c]) {
          if (!k.isWrite || cons.buffers[k.argIndex] != buf) continue;
          for (const ElemRanges& g : k.perGpu) kill = unionRanges(kill, g);
        }
      }
    }
  }
  return true;
}

DataflowPlanner::Observation DataflowPlanner::observe(
    const LaunchSignature& sig) {
  Observation obs;
  if (active_) {
    if (sig == cycle_[pos_]) {
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
    history_.push_back(sig);
    return obs;
  }

  history_.push_back(sig);
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
