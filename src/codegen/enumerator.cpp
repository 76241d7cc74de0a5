#include "codegen/enumerator.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "pset/set.h"
#include "support/str.h"

namespace polypart::codegen {

using analysis::ArrayModel;
using analysis::KernelModel;
using pset::AstExpr;
using pset::BasicSet;
using pset::Constraint;
using pset::DimId;
using pset::DimKind;
using pset::LinExpr;
using pset::ScanNest;
using pset::Space;

PartitionTuple PartitionTuple::fromBlocks(const ir::GridPartition& p,
                                          const ir::Dim3& blockDim) {
  PartitionTuple t;
  const i64 bidLo[3] = {p.lo.x, p.lo.y, p.lo.z};
  const i64 bidHi[3] = {p.hi.x, p.hi.y, p.hi.z};
  const i64 bd[3] = {blockDim.x, blockDim.y, blockDim.z};
  for (int a = 0; a < 3; ++a) {
    // blockOff = blockIdx * blockDim (Eq. 6).  The box must span exactly the
    // blockOff values of blocks inside the partition, so the (exclusive)
    // upper bound is the *last* block's blockOff plus one — using
    // bidHi*blockDim would admit phantom offsets up to a full block past the
    // partition edge and inflate the enumerated ranges.
    t.lo[static_cast<std::size_t>(a)] = checkedMul(bidLo[a], bd[a]);
    t.hi[static_cast<std::size_t>(a)] =
        checkedAdd(checkedMul(bidHi[a] - 1, bd[a]), 1);
    t.lo[static_cast<std::size_t>(3 + a)] = bidLo[a];
    t.hi[static_cast<std::size_t>(3 + a)] = bidHi[a];
  }
  return t;
}

EnumerationKey EnumerationKey::of(const PartitionTuple& partition,
                                  const ir::LaunchConfig& cfg,
                                  std::span<const i64> scalars) {
  EnumerationKey k;
  k.words.reserve(18 + scalars.size());
  k.words.insert(k.words.end(), {cfg.block.x, cfg.block.y, cfg.block.z,
                                 cfg.grid.x, cfg.grid.y, cfg.grid.z});
  k.words.insert(k.words.end(), scalars.begin(), scalars.end());
  k.words.insert(k.words.end(), partition.lo.begin(), partition.lo.end());
  k.words.insert(k.words.end(), partition.hi.begin(), partition.hi.end());
  return k;
}

std::size_t EnumerationKeyHash::operator()(std::span<const i64> words) const {
  u64 h = 1469598103934665603ull;
  for (i64 w : words) {
    h ^= static_cast<u64>(w);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

namespace {

/// The constraints of `s` linked to the columns marked in `linked` through
/// shared dimensions or parameters, transitively.  Their conjunction
/// contains `s`; a proof that it has no point outside some set therefore
/// holds for `s`, over a smaller elimination problem.
BasicSet connectedPart(const BasicSet& s, std::vector<bool> linked) {
  std::vector<bool> taken(s.numConstraints(), false);
  BasicSet out(s.space());
  for (bool grew = true; grew;) {
    grew = false;
    for (std::size_t i = 0; i < s.numConstraints(); ++i) {
      const LinExpr& row = s.constraints()[i].expr;
      bool touches = false;
      for (std::size_t col = 1; col < row.cols() && !touches; ++col)
        touches = row[col] != 0 && linked[col];
      if (taken[i] || !touches) continue;
      taken[i] = grew = true;
      out.add(s.constraints()[i]);
      for (std::size_t col = 1; col < row.cols(); ++col)
        if (row[col] != 0) linked[col] = true;
    }
  }
  return out;
}

/// Marks the non-constant columns `e` uses.
void markColumns(const LinExpr& e, std::vector<bool>* cols) {
  for (std::size_t col = 1; col < e.cols(); ++col)
    if (e[col] != 0) (*cols)[col] = true;
}

bool hasInequality(const BasicSet& s, const LinExpr& e) {
  const std::vector<Constraint>& cs = s.constraints();
  return std::find(cs.begin(), cs.end(), Constraint::ge(e)) != cs.end();
}

/// Scan nest of the union of `pieces` when that union is provably one
/// convex set C, else nullopt.  C is every inequality (equalities split into
/// two) that every piece satisfies — a piece S satisfies e >= 0 when
/// S ∩ {e < 0} is infeasible — so C contains the union by construction, and
/// the proof holds when C ∖ union is exactly empty for every parameter
/// value.  Inconclusive feasibility, an inexact subtraction or a checked
/// overflow inside the proof all mean "not proven".
std::optional<ScanNest> convexUnionNest(const Space& space,
                                        const std::vector<BasicSet>& pieces) {
  auto split = [](const BasicSet& s) {  // constraints as inequalities
    std::vector<LinExpr> out;
    for (const Constraint& c : s.constraints()) {
      out.push_back(c.expr);
      if (c.isEquality) out.push_back(-c.expr);
    }
    return out;
  };
  try {
    BasicSet hull(space);
    for (const BasicSet& source : pieces)
      for (const LinExpr& e : split(source)) {
        if (hasInequality(hull, e)) continue;
        LinExpr violated = -e;
        violated.addConstant(-1);  // ¬(e >= 0)  ≡  -e - 1 >= 0 over Z
        std::vector<bool> cols(e.cols(), false);
        markColumns(e, &cols);
        auto satisfies = [&](const BasicSet& s) {
          BasicSet test = connectedPart(s, cols);
          test.addGe(violated);
          test.simplify();
          return test.markedEmpty() ||
                 test.feasibility() == BasicSet::Feas::Empty;
        };
        if (std::all_of(pieces.begin(), pieces.end(), satisfies)) hull.addGe(e);
      }
    // A point of C outside the union violates some piece constraint that C
    // does not already carry, so those are all the subtrahends need; the
    // subtraction then only sees C's constraints linked to them.
    pset::Set rest(space);
    std::vector<bool> cols(space.cols(), false);
    for (const BasicSet& piece : pieces) {
      BasicSet extra(space);
      for (const LinExpr& e : split(piece))
        if (!hasInequality(hull, e)) {
          markColumns(e, &cols);
          extra.addGe(e);
        }
      rest.addPart(std::move(extra));
    }
    pset::Set gap(space);
    gap.addPart(connectedPart(hull, std::move(cols)));
    gap = gap.subtract(rest);
    if (!gap.exact() || gap.emptiness() != pset::Tri::Yes) return std::nullopt;
    return pset::buildScan(hull);
  } catch (const OverflowError&) {
    return std::nullopt;
  } catch (const UnsupportedKernelError&) {  // buildScan: unbounded dimension
    return std::nullopt;
  }
}

std::vector<std::string> partitionParamNames() {
  std::vector<std::string> names;
  for (const char* base : {"boxLo", "boyLo", "bozLo", "bxLo", "byLo", "bzLo",
                           "boxHi", "boyHi", "bozHi", "bxHi", "byHi", "bzHi"})
    names.push_back(base);
  return names;
}

/// Transparent key equality for the specialized-program cache: a stored
/// EnumerationKey and a raw parameter span compare word-for-word (the
/// parameter vector is the key words in ABI order).
struct SpecKeyEq {
  using is_transparent = void;
  static std::span<const i64> words(const EnumerationKey& k) { return k.words; }
  static std::span<const i64> words(std::span<const i64> s) { return s; }
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    std::span<const i64> x = words(a), y = words(b);
    return x.size() == y.size() && std::equal(x.begin(), x.end(), y.begin());
  }
};

}  // namespace

/// Specialized-tier program cache: folded programs keyed exactly like the
/// runtime's enumeration cache (the parameter vector *is* the key words in
/// ABI order), FIFO-bounded, shared across Enumerator copies.
struct Enumerator::SpecCache {
  static constexpr std::size_t kMaxPrograms = 64;
  std::mutex mu;
  std::unordered_map<EnumerationKey, std::shared_ptr<const bc::Program>,
                     EnumerationKeyHash, SpecKeyEq>
      map;
  std::deque<EnumerationKey> order;
  // Observational counters (see specCacheCounters()); relaxed atomics so the
  // Interpret/Bytecode tiers pay nothing and Specialized pays one increment.
  std::atomic<i64> hits{0};
  std::atomic<i64> misses{0};
  std::atomic<i64> evictions{0};
};

Enumerator::SpecCacheCounters Enumerator::specCacheCounters() const {
  const SpecCache& c = *specCache_;
  return {c.hits.load(std::memory_order_relaxed),
          c.misses.load(std::memory_order_relaxed),
          c.evictions.load(std::memory_order_relaxed)};
}

Enumerator::Enumerator(const KernelModel& model, const ArrayModel& array,
                       bool isWrite)
    : argIndex_(array.argIndex), isWrite_(isWrite), rank_(array.rank()) {
  name_ = model.kernel + "_arg" + std::to_string(array.argIndex) +
          (isWrite ? "_write" : "_read");

  const pset::Map& accessMap = isWrite ? array.write : array.read;
  exact_ = accessMap.exact();

  Space paramSpace = model.paramSpace();
  numModelParams_ = paramSpace.numParams();
  shapeRows_ = array.shape;

  // Extended space: model params followed by the 12 partition parameters.
  std::vector<std::string> partNames = partitionParamNames();
  Space extMapSpace = accessMap.space().addParams(partNames);
  paramNames_ = extMapSpace.paramNames();

  // Partition box constraints: pLo_i <= in_i < pHi_i for the six inputs.
  BasicSet box(extMapSpace);
  for (std::size_t i = 0; i < 6; ++i) {
    LinExpr in = LinExpr::dim(extMapSpace, DimId::in(i));
    LinExpr lo = LinExpr::dim(extMapSpace, DimId::param(numModelParams_ + i));
    LinExpr hi = LinExpr::dim(extMapSpace, DimId::param(numModelParams_ + 6 + i));
    box.addGe(in - lo);
    box.addGe(hi - in + LinExpr::constant(extMapSpace, -1));
  }

  Space scanSpace = Space::set(extMapSpace.paramNames(), extMapSpace.outNames());
  std::vector<BasicSet> scanSets;  // one per nest
  for (const BasicSet& part : accessMap.parts()) {
    BasicSet constrained = part.alignToSpace(extMapSpace).intersect(box);
    // Project the six thread-grid inputs away; the image over the array
    // dimensions is what the partition accesses (Section 6).
    pset::Proj p = constrained.projectOut(DimKind::In, 0, 6);
    if (!p.exact) exact_ = false;
    p.set.simplify();
    if (p.set.markedEmpty()) continue;
    // Rebuild over a set space whose input dims are the array dims (same
    // column layout, so rows carry over unchanged).
    BasicSet scanSet(scanSpace);
    for (const Constraint& c : p.set.constraints()) scanSet.add(c);
    nests_.push_back(pset::buildScan(scanSet));
    scanSets.push_back(std::move(scanSet));
  }

  if (isWrite_ && !exact_)
    throw UnsupportedKernelError(
        "enumerator '" + name_ +
        "': write ranges would be over-approximated; the tracker update "
        "must be accurate (paper Section 4.1)");

  // Multi-disjunct read maps are enumerated through a *rectangular hull* at
  // run time (see enumerate()): per level the minimum of the live disjuncts'
  // lower bounds and the maximum of their uppers.  The hull covers every
  // disjunct, which is a sound over-approximation for reads (Section 4.1),
  // and usually collapses a stencil's five access disjuncts into one convex
  // nest that full-row coalescing then walks in O(1).
  if (!isWrite_ && nests_.size() > 1) {
    bool sameRank = true;
    for (const ScanNest& n : nests_)
      if (n.levels.size() != rank_) sameRank = false;
    hullable_ = sameRank;
    if (hullable_) exact_ = false;
  }

  // Writes must stay exact, so instead of a hull a multi-disjunct write map
  // is checked for being one convex set in disguise: a stencil's interior
  // plus its four borders is exactly the clipped square.  When the proof
  // holds, enumerate() emits through that one nest (see there).
  if (isWrite_ && nests_.size() > 1)
    convex_ = convexUnionNest(scanSpace, scanSets);

  // Compile the bytecode tier once per enumerator; copies share the program
  // and the specialized-program cache (both are reached through shared_ptr
  // and the cache is internally synchronized).  The convex nest, when
  // proven, is the program's last nest.
  std::vector<ScanNest> compiled = nests_;
  if (convex_) compiled.push_back(*convex_);
  program_ = std::make_shared<const bc::Program>(bc::compile(compiled));
  specCache_ = std::make_shared<SpecCache>();
}

std::shared_ptr<const bc::Program> Enumerator::specializedFor(
    const PartitionTuple& partition, const ir::LaunchConfig& cfg,
    std::span<const i64> scalars, std::span<const i64> params) const {
  SpecCache& cache = *specCache_;
  {
    // Heterogeneous probe: `params` already holds the key words in ABI
    // order, so the hit path hashes the span in place — no key vector is
    // built or copied on the fast path.
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.map.find(params);
    if (it != cache.map.end()) {
      cache.hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  cache.misses.fetch_add(1, std::memory_order_relaxed);
  // Fold outside the lock.  The fold is pure: if this key was inserted in
  // the meantime, keeping the existing program is equivalent.
  auto fresh =
      std::make_shared<const bc::Program>(bc::specialize(*program_, params));
  EnumerationKey key;
  key.words.assign(params.begin(), params.end());
  PP_ASSERT_MSG(key == EnumerationKey::of(partition, cfg, scalars),
                "buildParams diverged from the enumeration-key ABI");
  std::lock_guard<std::mutex> lock(cache.mu);
  auto [it, inserted] = cache.map.try_emplace(std::move(key), std::move(fresh));
  if (inserted) {
    cache.order.push_back(it->first);
    while (cache.order.size() > SpecCache::kMaxPrograms) {
      cache.map.erase(cache.order.front());
      cache.order.pop_front();
      cache.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return it->second;
}

Enumerator::ParamVec Enumerator::buildParams(const PartitionTuple& partition,
                                             const ir::LaunchConfig& cfg,
                                             std::span<const i64> scalars) const {
  PP_ASSERT_MSG(6 + scalars.size() == numModelParams_,
                "scalar argument count does not match the model");
  ParamVec params;
  for (i64 v : {cfg.block.x, cfg.block.y, cfg.block.z,
                cfg.grid.x, cfg.grid.y, cfg.grid.z})
    params.push_back(v);
  for (i64 v : scalars) params.push_back(v);
  for (i64 v : partition.lo) params.push_back(v);
  for (i64 v : partition.hi) params.push_back(v);
  return params;
}

namespace {

/// Pre-merge range scratch (std::pair is not trivially copyable, which
/// SmallVec requires); ordered like the pair it replaces.
struct FlatRange {
  i64 begin, end;
  auto operator<=>(const FlatRange&) const = default;
};

/// Evaluator policy for the interpreter tier: bounds come from the
/// pset::AstExpr trees (paper mode).
struct AstEval {
  std::span<const ScanNest* const> nests;
  std::span<const i64> params;

  std::size_t numLevels() const { return nests[0]->levels.size(); }
  std::size_t numNests() const { return nests.size(); }
  i64 lower(std::size_t n, std::size_t level, std::span<const i64> coords) const {
    return nests[n]->levels[level].lower.eval(params, coords);
  }
  i64 upper(std::size_t n, std::size_t level, std::span<const i64> coords) const {
    return nests[n]->levels[level].upper.eval(params, coords);
  }
  bool boundsIndependent(std::size_t level, std::size_t ofLevel) const {
    for (const ScanNest* n : nests)
      if (!n->levels[level].lower.independentOfLoopsFrom(ofLevel) ||
          !n->levels[level].upper.independentOfLoopsFrom(ofLevel))
        return false;
    return true;
  }
};

/// Evaluator policy for the bytecode VM; the specialized tier uses it too
/// with the folded program (whose loop-dependence metadata is copied from
/// the unspecialized code, so coalescing decisions are tier-invariant).
struct VmEval {
  const bc::Program& prog;
  std::span<const bc::CompiledNest* const> nests;
  std::span<const i64> params;
  i64* regs;

  std::size_t numLevels() const { return nests[0]->levels.size(); }
  std::size_t numNests() const { return nests.size(); }
  i64 lower(std::size_t n, std::size_t level, std::span<const i64> coords) const {
    return prog.eval(nests[n]->levels[level].lower, params, coords, regs);
  }
  i64 upper(std::size_t n, std::size_t level, std::span<const i64> coords) const {
    return prog.eval(nests[n]->levels[level].upper, params, coords, regs);
  }
  bool boundsIndependent(std::size_t level, std::size_t ofLevel) const {
    for (const bc::CompiledNest* n : nests)
      if (!n->levels[level].lower.independentOfLoopsFrom(ofLevel) ||
          !n->levels[level].upper.independentOfLoopsFrom(ofLevel))
        return false;
    return true;
  }
};

/// Emits the flattened ranges of one nest — or, with several nests, of
/// their rectangular hull (per-level min of lowers / max of uppers, a sound
/// cover of the union used for read maps only).  Templated over the bound
/// evaluator so every tier shares one control flow (identical coalescing
/// decisions, identical emission order, identical work accounting) and over
/// the emit callback so the per-row collector call inlines instead of going
/// through std::function.  In count-only mode the walk takes the same
/// decisions and accumulates the same logicalRows but emits nothing, so
/// full-row and uniform-tail levels cost O(1) instead of O(rows).
template <typename Eval, typename EmitFn>
struct EmitCtx {
  const Eval& ev;
  std::span<const i64> strides;  // per level; strides[last] == 1
  std::span<const i64> dims;     // extent per level; <= 0 when unknown
  bool coalesce;
  bool countOnly;
  const EmitFn& emit;
  support::SmallVec<i64, 8> coords;
  i64 logicalRows = 0;

  std::size_t numLevels() const { return ev.numLevels(); }

  std::span<const i64> coordSpan() const {
    return {coords.data(), coords.size()};
  }

  i64 lowerAt(std::size_t level) const {
    std::span<const i64> c = coordSpan();
    i64 v = ev.lower(0, level, c);
    for (std::size_t i = 1; i < ev.numNests(); ++i)
      v = std::min(v, ev.lower(i, level, c));
    return v;
  }

  i64 upperAt(std::size_t level) const {
    std::span<const i64> c = coordSpan();
    i64 v = ev.upper(0, level, c);
    for (std::size_t i = 1; i < ev.numNests(); ++i)
      v = std::max(v, ev.upper(i, level, c));
    return v;
  }

  bool boundsIndependent(std::size_t level, std::size_t ofLevel) const {
    return ev.boundsIndependent(level, ofLevel);
  }

  /// True when every level below `level` has bounds independent of loop
  /// variables >= `level` and spans its full extent: the tail then flattens
  /// into one contiguous run of strides[level] elements per iteration.
  bool tailIsFullRows(std::size_t level) {
    for (std::size_t j = level + 1; j < numLevels(); ++j) {
      if (dims[j] <= 0) return false;
      if (!boundsIndependent(j, level)) return false;
      if (lowerAt(j) != 0) return false;
      if (upperAt(j) != dims[j] - 1) return false;
    }
    return true;
  }

  void run(std::size_t level, i64 base) {
    i64 lo = lowerAt(level);
    i64 hi = upperAt(level);
    if (lo > hi) return;
    if (level + 1 == numLevels()) {
      ++logicalRows;
      if (!countOnly) emit(checkedAdd(base, lo), checkedAdd(base, hi + 1));
      return;
    }
    if (coalesce && tailIsFullRows(level)) {
      // Rows lo..hi are contiguous in row-major order: one range.  The
      // uncoalesced scheme would have walked every row below this level.
      i64 rows = hi - lo + 1;
      for (std::size_t j = level + 1; j + 1 < numLevels(); ++j)
        rows = checkedMul(rows, dims[j]);
      logicalRows += rows;
      if (!countOnly)
        emit(checkedAdd(base, checkedMul(lo, strides[level])),
             checkedAdd(base, checkedMul(hi + 1, strides[level])));
      return;
    }
    // Uniform tail: the innermost bounds do not depend on this loop
    // variable, so evaluate them once and emit the per-row ranges with pure
    // integer arithmetic (no AST re-evaluation per row).
    if (coalesce && level + 2 == numLevels() && boundsIndependent(level + 1, level)) {
      i64 ilo = lowerAt(level + 1);
      i64 ihi = upperAt(level + 1);
      if (ilo > ihi) return;
      logicalRows += hi - lo + 1;
      if (countOnly) return;
      for (i64 v = lo; v <= hi; ++v) {
        i64 rowBase = checkedAdd(base, checkedMul(v, strides[level]));
        emit(rowBase + ilo, rowBase + ihi + 1);
      }
      return;
    }
    coords.push_back(lo);
    for (i64 v = lo; v <= hi; ++v) {
      coords.back() = v;
      run(level + 1, checkedAdd(base, checkedMul(v, strides[level])));
    }
    coords.pop_back();
  }
};

}  // namespace

void Enumerator::enumerate(const PartitionTuple& partition,
                           const ir::LaunchConfig& cfg,
                           std::span<const i64> scalars, const RangeFn& emit,
                           EnumInfo* info) const {
  ParamVec params = buildParams(partition, cfg, scalars);
  const std::span<const i64> pspan(params.data(), params.size());

  // Evaluate the array extents and row-major strides.
  support::SmallVec<i64, 4> dims(rank_, -1);
  for (std::size_t i = 0; i < shapeRows_.size(); ++i) {
    i64 acc = shapeRows_[i].constantTerm();
    for (std::size_t p = 0; p < numModelParams_; ++p)
      acc = checkedAdd(acc, checkedMul(shapeRows_[i][p + 1], params[p]));
    dims[i] = acc;
  }
  support::SmallVec<i64, 4> strides(rank_, 1);
  for (std::size_t i = rank_ - 1; i-- > 0;) {
    PP_ASSERT_MSG(dims[i + 1] > 0, "multi-dimensional array with unknown extent");
    strides[i] = checkedMul(strides[i + 1], dims[i + 1]);
  }

  // Collect ranges from every live disjunct, then sort and merge: disjuncts
  // of a union map overlap (a stencil reads the same centre row five times),
  // and merging keeps both transfer volume and tracker updates minimal.
  support::SmallVec<FlatRange, 16> ranges;
  auto collect = [&](i64 b, i64 e) {
    if (b < e) ranges.push_back({b, e});
  };
  i64 logicalRows = 0;
  support::SmallVec<std::size_t, 8> runEnds;  // ranges.size() after each nest

  // Walks one evaluator's nest(s); a count-only walk collects no ranges.
  auto walk = [&](const auto& ev, bool countOnly) {
    EmitCtx<std::decay_t<decltype(ev)>, decltype(collect)> ctx{
        ev, {strides.data(), strides.size()}, {dims.data(), dims.size()},
        coalesce, countOnly, collect, {}, 0};
    ctx.run(0, 0);
    if (ranges.size() > (runEnds.empty() ? 0 : runEnds.back()))
      runEnds.push_back(ranges.size());
    return ctx.logicalRows;
  };

  // One dispatch for every tier.  `live` holds the disjunct nests whose
  // guards hold; `convexLive` is the proven convex nest when coalescing uses
  // it and its guards hold.  Reads with several live disjuncts go through
  // their rectangular hull.  A proven write counts each live disjunct's rows
  // without emitting (EnumInfo::logicalRows keeps the paper's per-disjunct
  // count) and emits through the convex nest: it holds exactly the union's
  // elements, so the merge below yields the same maximal runs.
  const bool viaConvex = coalesce && convex_.has_value();
  auto walkLive = [&](const auto& live, auto convexLive, auto makeEval) {
    using Nest = std::decay_t<decltype(live[0])>;
    if (coalesce && hullable_ && live.size() > 1) {
      logicalRows +=
          walk(makeEval(std::span<const Nest>(live.data(), live.size())), false);
      return;
    }
    for (const Nest& nest : live)
      logicalRows += walk(makeEval(std::span<const Nest>(&nest, 1)), viaConvex);
    if (convexLive) walk(makeEval(std::span<const Nest>(&convexLive, 1)), false);
  };

  if (tier == EnumTier::Interpret) {
    // Guards short-circuit in order; later guards of a dead nest are never
    // evaluated (the tiers preserve this, including its lazy overflow
    // behaviour).
    auto guardsHold = [&](const ScanNest& nest) {
      for (const AstExpr& g : nest.guards)
        if (g.eval(pspan, {}) < 0) return false;
      return true;
    };
    support::SmallVec<const ScanNest*, 8> live;
    for (const ScanNest& nest : nests_)
      if (guardsHold(nest)) live.push_back(&nest);
    const ScanNest* convexLive =
        viaConvex && guardsHold(*convex_) ? &*convex_ : nullptr;
    walkLive(live, convexLive, [&](std::span<const ScanNest* const> ns) {
      return AstEval{ns, pspan};
    });
  } else {
    std::shared_ptr<const bc::Program> specialized;
    const bc::Program* prog = program_.get();
    if (tier == EnumTier::Specialized) {
      specialized = specializedFor(partition, cfg, scalars, pspan);
      prog = specialized.get();
    }
    // Register scratch lives on the stack for every program this system
    // compiles (file size = deepest single expression); the heap fallback
    // keeps pathological expressions correct.
    constexpr std::size_t kInlineRegs = 64;
    i64 regsInline[kInlineRegs];
    std::vector<i64> regsHeap;
    i64* regs = regsInline;
    if (prog->numRegs > kInlineRegs) {
      regsHeap.resize(prog->numRegs);
      regs = regsHeap.data();
    }
    auto guardsHold = [&](const bc::CompiledNest& nest) {
      for (const bc::CompiledExpr& g : nest.guards)
        if (prog->eval(g, pspan, {}, regs) < 0) return false;
      return true;
    };
    support::SmallVec<const bc::CompiledNest*, 8> live;
    for (std::size_t i = 0; i < nests_.size(); ++i)
      if (guardsHold(prog->nests[i])) live.push_back(&prog->nests[i]);
    const bc::CompiledNest* convexLive =
        viaConvex && guardsHold(prog->nests.back()) ? &prog->nests.back()
                                                    : nullptr;
    walkLive(live, convexLive,
             [&](std::span<const bc::CompiledNest* const> ns) {
               return VmEval{*prog, ns, pspan, regs};
             });
  }

  // Establish sorted order.  Every nest walks its loops in increasing order,
  // so the scratch is a concatenation of sorted runs (one per emitWith call)
  // and merging the runs pairwise is O(n·k), not the O(n log n) a full sort
  // of the interleaved per-row ranges costs — on a stencil write this is the
  // single largest slice of enumeration time.  Both produce the same sorted
  // permutation, so the merge loop below sees identical input either way;
  // a run that is ever not ascending falls back to the full sort.
  bool sortedRuns = true;
  for (std::size_t r = 0, prev = 0; r < runEnds.size(); prev = runEnds[r++])
    if (!std::is_sorted(ranges.begin() + prev, ranges.begin() + runEnds[r])) {
      sortedRuns = false;
      break;
    }
  if (!sortedRuns) {
    std::sort(ranges.begin(), ranges.end());
  } else {
    for (std::size_t r = 1; r < runEnds.size(); ++r) {
      std::size_t sortedTo = runEnds[r - 1];
      if (ranges[sortedTo] < ranges[sortedTo - 1])
        std::inplace_merge(ranges.begin(), ranges.begin() + sortedTo,
                           ranges.begin() + runEnds[r]);
    }
  }
  i64 pendBegin = 0, pendEnd = -1;
  i64 emitted = 0;
  bool pending = false;
  for (const auto& [b, e] : ranges) {
    if (pending && b <= pendEnd) {
      pendEnd = std::max(pendEnd, e);
      continue;
    }
    if (pending) {
      emit(pendBegin, pendEnd);
      ++emitted;
    }
    pendBegin = b;
    pendEnd = e;
    pending = true;
  }
  if (pending) {
    emit(pendBegin, pendEnd);
    ++emitted;
  }
  if (info) {
    info->ranges += emitted;
    info->logicalRows += logicalRows;
  }
}

MaterializedRanges Enumerator::materialize(const PartitionTuple& partition,
                                           const ir::LaunchConfig& cfg,
                                           std::span<const i64> scalars) const {
  MaterializedRanges out;
  enumerate(partition, cfg, scalars,
            [&](i64 b, i64 e) { out.ranges.emplace_back(b, e); }, &out.info);
  return out;
}

i64 Enumerator::countElements(const PartitionTuple& partition,
                              const ir::LaunchConfig& cfg,
                              std::span<const i64> scalars) const {
  // Accumulate in 128-bit arithmetic.  The emitted ranges are merged and
  // clipped to the declared array shape, so the sum fits in i64 only by a
  // global argument (disjoint subranges of [0, 2^63) sum below 2^63); the
  // old code banked on that argument with an unchecked `e - b` subtraction.
  // Counting in 128 bits makes the invariant checkable instead of assumed,
  // and any future unclipped access path (or a hull over one) gets a
  // diagnosable error rather than a silently wrapped count.
  using i128 = __int128;
  i128 total = 0;
  enumerate(partition, cfg, scalars, [&](i64 b, i64 e) {
    total += static_cast<i128>(e) - static_cast<i128>(b);
  });
  if (total > static_cast<i128>(std::numeric_limits<i64>::max()))
    throw OverflowError(
        "enumerator '" + name_ +
        "': total element count exceeds the 64-bit range (grid extent times "
        "halo depth is too large to account); partition box and launch "
        "configuration produce an unrepresentable access-set size");
  return static_cast<i64>(total);
}

std::string Enumerator::emitC() const {
  std::string out;
  out += "// Generated by polypart codegen (paper Section 6.2).\n";
  out += "// Inputs are passed as arrays of 64-bit integers; the callback is\n";
  out += "// invoked once per element range to avoid dynamic allocation.\n";
  out += "void " + name_ +
         "(const int64_t* partition, const int64_t* launch,\n"
         "    const int64_t* scalars, void* ctx, polypart_range_cb cb) {\n";
  // Parameter unpacking.
  for (std::size_t i = 0; i < paramNames_.size(); ++i) {
    std::string src;
    if (i < 6) {
      src = "launch[" + std::to_string(i) + "]";
    } else if (i < numModelParams_) {
      src = "scalars[" + std::to_string(i - 6) + "]";
    } else {
      src = "partition[" + std::to_string(i - numModelParams_) + "]";
    }
    out += "  const int64_t " + paramNames_[i] + " = " + src + ";\n";
  }
  auto renderNest = [&](const ScanNest& nest) {
    std::string body = pset::scanToC(nest, paramNames_, "cb");
    // Indent the generated nest.
    std::size_t pos = 0;
    while (pos < body.size()) {
      std::size_t nl = body.find('\n', pos);
      if (nl == std::string::npos) nl = body.size();
      out += "  " + body.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  };
  if (convex_) {
    // With coalescing on (the default), the proven nest is the function.
    out += "  // Convex union of " + std::to_string(nests_.size()) +
           " disjuncts (proven: hull minus union is empty)\n";
    renderNest(*convex_);
  } else {
    for (std::size_t d = 0; d < nests_.size(); ++d) {
      out += "  // Disjunct " + std::to_string(d) + "\n";
      renderNest(nests_[d]);
    }
  }
  out += "}\n";
  return out;
}

std::vector<Enumerator> buildEnumerators(const KernelModel& model) {
  std::vector<Enumerator> out;
  for (const ArrayModel& a : model.arrays) {
    if (a.hasReads()) out.emplace_back(model, a, /*isWrite=*/false);
    if (a.hasWrites()) out.emplace_back(model, a, /*isWrite=*/true);
  }
  return out;
}

}  // namespace polypart::codegen
