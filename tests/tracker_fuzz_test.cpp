// Differential fuzzing of the segment tracker (paper Section 8.1).
//
// Pits SegmentTracker against a flat per-unit reference model over random
// update / addSharer / dropSharer / query sequences.  After every mutation
// the tracker must (a) satisfy its structural invariants (tiling, maximal
// coalescing, owner-bit membership), (b) report exactly the runs the
// reference model predicts through query(), and (c) keep its segment count
// equal to the reference's run count — a stricter check than (a) alone,
// since a missed merge shows up as an extra segment with *different*
// neighbours only in the reference's run-length encoding.
//
// This is the audit harness for coalesceRange's boundary handling (the
// floorEntry(begin - 1) left-slack path and the begin == 0 fallback): the
// operation mix is biased towards addSharer calls whose ranges start at 0,
// at existing segment boundaries, and one unit past them.

#include <gtest/gtest.h>

#include <vector>

#include "fuzz_util.h"
#include "rt/tracker.h"

namespace polypart::rt {
namespace {

/// Flat reference model: one (owner, sharers) cell per tracker unit.
class FlatTracker {
 public:
  explicit FlatTracker(i64 size)
      : cells_(static_cast<std::size_t>(size), {kOwnerUndefined, 0}) {}

  void update(i64 begin, i64 end, Owner owner) {
    clamp(begin, end);
    for (i64 i = begin; i < end; ++i)
      cells_[static_cast<std::size_t>(i)] = {owner, bit(owner)};
  }

  void addSharer(i64 begin, i64 end, int device) {
    clamp(begin, end);
    if (bit(device) == 0) return;  // devices >= 64 are untrackable no-ops
    for (i64 i = begin; i < end; ++i)
      cells_[static_cast<std::size_t>(i)].second |= bit(device);
  }

  /// Clears `device`'s bit on every unit it does not own.
  void dropSharer(int device) {
    for (auto& [owner, sharers] : cells_)
      if (owner != device) sharers &= ~bit(device);
  }

  /// Run-length encodes [begin, end): the segments a correct tracker reports.
  struct Run {
    i64 begin = 0;
    i64 end = 0;
    Owner owner = kOwnerUndefined;
    u64 sharers = 0;
    bool operator==(const Run&) const = default;
  };
  std::vector<Run> runs(i64 begin, i64 end) const {
    clamp(begin, end);
    std::vector<Run> out;
    for (i64 i = begin; i < end; ++i) {
      const auto& [owner, sharers] = cells_[static_cast<std::size_t>(i)];
      if (!out.empty() && out.back().end == i && out.back().owner == owner &&
          out.back().sharers == sharers) {
        out.back().end = i + 1;
      } else {
        out.push_back(Run{i, i + 1, owner, sharers});
      }
    }
    return out;
  }

  std::size_t runCount() const {
    return runs(0, static_cast<i64>(cells_.size())).size();
  }

 private:
  static u64 bit(Owner device) {
    return device >= 0 && device < 64 ? (u64{1} << device) : 0;
  }
  void clamp(i64& begin, i64& end) const {
    begin = std::max<i64>(begin, 0);
    end = std::min<i64>(end, static_cast<i64>(cells_.size()));
  }

  std::vector<std::pair<Owner, u64>> cells_;
};

void checkAgainstReference(const SegmentTracker& tracker, const FlatTracker& ref,
                           i64 qBegin, i64 qEnd, int step) {
  ASSERT_TRUE(tracker.checkInvariants()) << "op " << step;
  ASSERT_EQ(tracker.segmentCount(), ref.runCount()) << "op " << step;

  std::vector<FlatTracker::Run> expect = ref.runs(qBegin, qEnd);
  std::vector<FlatTracker::Run> got;
  tracker.query(qBegin, qEnd, [&](i64 b, i64 e, Owner o, u64 s) {
    got.push_back(FlatTracker::Run{b, e, o, s});
  });
  ASSERT_EQ(got, expect) << "query mismatch at op " << step;
}

/// Picks a range boundary biased towards the interesting coalescing spots:
/// 0, the buffer end, and +/-1 around them.
i64 fuzzPos(Rng& rng, i64 size) {
  switch (rng.range(0, 5)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return size;
    case 3: return size - 1;
    default: return rng.range(-2, size + 2);  // includes out-of-bounds
  }
}

/// Runs `ops` random operations on a tracker of `size` units and its
/// reference.  With `dropSharers` the op mix gains dropSharer(); without it
/// the random stream is the update / addSharer / query mix alone.
void runFuzz(u64 seed, i64 size, int ops, bool dropSharers = false) {
  SCOPED_TRACE(fuzz::SeededRng(seed).replay());
  Rng rng(seed);
  SegmentTracker tracker(size);
  FlatTracker ref(size);
  for (int step = 0; step < ops; ++step) {
    i64 a = fuzzPos(rng, size);
    i64 b = fuzzPos(rng, size);
    if (a > b) std::swap(a, b);
    const i64 op = rng.range(0, dropSharers ? 4 : 3);
    switch (op) {
      case 0:
      case 1: {
        // Owners stay within the 64-bit sharer bitmap: the tracker's own
        // invariant (owner's bit is in the sharer set) is unrepresentable
        // beyond it, and the runtime never has more than 64 devices.
        Owner owner = static_cast<Owner>(rng.range(0, 1) == 0
                                             ? rng.range(0, 3)
                                             : rng.range(0, 63));
        tracker.update(a, b, owner);
        ref.update(a, b, owner);
        break;
      }
      case 2: {
        // Past-the-bitmap devices (>= 64) exercise the addSharer no-op path.
        int device = static_cast<int>(rng.range(0, 1) == 0 ? rng.range(0, 3)
                                                           : rng.range(0, 70));
        tracker.addSharer(a, b, device);
        ref.addSharer(a, b, device);
        break;
      }
      default: {
        if (op == 4) {
          // Same device mix as addSharer, so drops hit recorded replicas,
          // owned ranges and past-the-bitmap no-ops alike.
          int device = static_cast<int>(rng.range(0, 1) == 0 ? rng.range(0, 3)
                                                             : rng.range(0, 70));
          tracker.dropSharer(device);
          ref.dropSharer(device);
        }
        // Otherwise a pure query, which must not mutate either model; the
        // comparisons below check that.
        break;
      }
    }
    i64 qa = fuzzPos(rng, size);
    i64 qb = fuzzPos(rng, size);
    if (qa > qb) std::swap(qa, qb);
    checkAgainstReference(tracker, ref, qa, qb, step);
    // The full-range view must agree too (catches corruption outside the
    // queried window).
    checkAgainstReference(tracker, ref, 0, size, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(TrackerFuzz, BTreeBackendMatchesFlatReference) {
  for (int i = 0; i < fuzz::caseCount(4); ++i)
    runFuzz(fuzz::seedFor(1, i), 97, 400);
}

TEST(TrackerFuzz, DropSharerMatchesFlatReference) {
  // dropSharer() (device-failure recovery) between updates and addSharer
  // calls: replicas vanish, owned ranges keep their bit, and the segments
  // that become identical must re-coalesce.
  for (int i = 0; i < fuzz::caseCount(4); ++i)
    runFuzz(fuzz::seedFor(4, i), 97, 400, /*dropSharers=*/true);
}

TEST(TrackerFuzz, TinyBuffersAndSingleUnit) {
  // Degenerate sizes keep the boundary arithmetic honest (begin == 0 and
  // end == size coincide or nearly coincide).
  for (int i = 0; i < fuzz::caseCount(2); ++i) {
    u64 seed = fuzz::seedFor(3, i);
    runFuzz(seed, 1, 120);
    runFuzz(seed, 2, 120);
    runFuzz(seed, 3, 120);
  }
}

TEST(TrackerFuzz, AdjacentIdenticalSegmentsAlwaysMerge) {
  // Directed scenario distilled from the coalesceRange audit: two adjacent
  // ranges receive the same sharer through separate addSharer calls whose
  // boundaries meet mid-buffer; a missed left-slack merge would leave two
  // segments with identical (owner, sharers).
  SegmentTracker t(100);
  t.update(0, 100, 0);
  t.addSharer(0, 50, 1);
  t.addSharer(50, 100, 1);
  EXPECT_TRUE(t.checkInvariants());
  EXPECT_EQ(t.segmentCount(), 1u);

  // Same at the begin == 0 boundary with a pre-existing split at 1.
  SegmentTracker u(10);
  u.update(0, 10, 2);
  u.addSharer(1, 10, 3);
  u.addSharer(0, 1, 3);
  EXPECT_TRUE(u.checkInvariants());
  EXPECT_EQ(u.segmentCount(), 1u);
}

}  // namespace
}  // namespace polypart::rt
