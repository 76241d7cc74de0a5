// Tests for the B+ tree map (rt/btree.h), including a randomized property
// check against std::map covering inserts, overwrites, erases, ordered
// iteration, and predecessor queries.

#include <gtest/gtest.h>

#include <map>

#include "rt/btree.h"
#include "rt/tracker.h"
#include "support/arith.h"
#include "support/rng.h"

namespace polypart::rt {
namespace {

TEST(BTree, EmptyTree) {
  BTreeMap<i64, int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.begin().atEnd());
  EXPECT_TRUE(t.lowerBound(0).atEnd());
  EXPECT_TRUE(t.floorEntry(100).atEnd());
  EXPECT_FALSE(t.erase(3));
}

TEST(BTree, InsertAndFind) {
  BTreeMap<i64, int> t;
  for (i64 k : {5, 1, 9, 3, 7}) t.insert(k, static_cast<int>(k * 10));
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.find(3).value(), 30);
  EXPECT_EQ(t.find(9).value(), 90);
  EXPECT_TRUE(t.find(4).atEnd());
  // Overwrite does not grow the tree.
  t.insert(3, 333);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.find(3).value(), 333);
}

TEST(BTree, OrderedIteration) {
  BTreeMap<i64, int> t;
  for (i64 k = 99; k >= 0; --k) t.insert(k, static_cast<int>(k));
  i64 expect = 0;
  for (auto it = t.begin(); !it.atEnd(); it.next()) {
    EXPECT_EQ(it.key(), expect);
    ++expect;
  }
  EXPECT_EQ(expect, 100);
}

TEST(BTree, LowerBoundAndFloor) {
  BTreeMap<i64, int> t;
  for (i64 k = 0; k < 100; k += 10) t.insert(k, static_cast<int>(k));
  EXPECT_EQ(t.lowerBound(35).key(), 40);
  EXPECT_EQ(t.lowerBound(40).key(), 40);
  EXPECT_TRUE(t.lowerBound(91).atEnd());
  EXPECT_EQ(t.floorEntry(35).key(), 30);
  EXPECT_EQ(t.floorEntry(40).key(), 40);
  EXPECT_TRUE(t.floorEntry(-1).atEnd());
  EXPECT_EQ(t.floorEntry(1000).key(), 90);
}

TEST(BTree, EraseRebalances) {
  BTreeMap<i64, int, 4> t;  // tiny order forces splits and merges
  const i64 n = 500;
  for (i64 k = 0; k < n; ++k) t.insert(k, static_cast<int>(k));
  EXPECT_GE(t.height(), 3);
  for (i64 k = 0; k < n; k += 2) EXPECT_TRUE(t.erase(k));
  EXPECT_EQ(t.size(), static_cast<std::size_t>(n / 2));
  for (i64 k = 0; k < n; ++k)
    EXPECT_EQ(!t.find(k).atEnd(), k % 2 == 1) << k;
  for (i64 k = 1; k < n; k += 2) EXPECT_TRUE(t.erase(k));
  EXPECT_TRUE(t.empty());
}

TEST(BTree, HeightStaysLogarithmic) {
  BTreeMap<i64, int> t;  // order 16
  for (i64 k = 0; k < 100000; ++k) t.insert(k * 7919 % 1000003, 0);
  // 16-ary tree: 100k entries fit comfortably in 5 levels.
  EXPECT_LE(t.height(), 6);
}

TEST(BTree, RandomizedAgainstStdMap) {
  Rng rng(42);
  for (int order : {0, 1}) {
    BTreeMap<i64, i64, 4> small;
    BTreeMap<i64, i64, 16> big;
    std::map<i64, i64> ref;
    for (int step = 0; step < 20000; ++step) {
      i64 k = rng.range(0, 400);
      double roll = rng.uniform();
      if (roll < 0.55) {
        i64 v = rng.range(0, 1000000);
        if (order == 0) small.insert(k, v); else big.insert(k, v);
        ref[k] = v;
      } else if (roll < 0.85) {
        bool a = order == 0 ? small.erase(k) : big.erase(k);
        bool b = ref.erase(k) > 0;
        ASSERT_EQ(a, b) << "erase mismatch at step " << step;
      } else {
        // Compare lowerBound.
        auto refIt = ref.lower_bound(k);
        if (order == 0) {
          auto it = small.lowerBound(k);
          ASSERT_EQ(it.atEnd(), refIt == ref.end());
          if (!it.atEnd()) {
            ASSERT_EQ(it.key(), refIt->first);
            ASSERT_EQ(it.value(), refIt->second);
          }
        } else {
          auto it = big.lowerBound(k);
          ASSERT_EQ(it.atEnd(), refIt == ref.end());
          if (!it.atEnd()) {
            ASSERT_EQ(it.key(), refIt->first);
            ASSERT_EQ(it.value(), refIt->second);
          }
        }
      }
      if (step % 997 == 0) {
        // Full in-order comparison.
        std::size_t sz = order == 0 ? small.size() : big.size();
        ASSERT_EQ(sz, ref.size());
        auto refIt = ref.begin();
        if (order == 0) {
          for (auto it = small.begin(); !it.atEnd(); it.next(), ++refIt) {
            ASSERT_EQ(it.key(), refIt->first);
            ASSERT_EQ(it.value(), refIt->second);
          }
        } else {
          for (auto it = big.begin(); !it.atEnd(); it.next(), ++refIt) {
            ASSERT_EQ(it.key(), refIt->first);
            ASSERT_EQ(it.value(), refIt->second);
          }
        }
        ASSERT_EQ(refIt, ref.end());
      }
    }
  }
}

TEST(Tracker, InitialStateUndefined) {
  SegmentTracker t(1000);
  EXPECT_EQ(t.segmentCount(), 1u);
  EXPECT_EQ(t.ownerAt(0), kOwnerUndefined);
  EXPECT_EQ(t.ownerAt(999), kOwnerUndefined);
  EXPECT_TRUE(t.checkInvariants());
}

TEST(Tracker, UpdateAndQuery) {
  SegmentTracker t(1000);
  t.update(100, 200, 0);
  t.update(200, 300, 1);
  EXPECT_TRUE(t.checkInvariants());
  std::vector<std::tuple<i64, i64, Owner>> segs;
  t.query(50, 350, [&](i64 b, i64 e, Owner o, u64) { segs.emplace_back(b, e, o); });
  ASSERT_EQ(segs.size(), 4u);
  EXPECT_EQ(segs[0], (std::tuple<i64, i64, Owner>{50, 100, kOwnerUndefined}));
  EXPECT_EQ(segs[1], (std::tuple<i64, i64, Owner>{100, 200, 0}));
  EXPECT_EQ(segs[2], (std::tuple<i64, i64, Owner>{200, 300, 1}));
  EXPECT_EQ(segs[3], (std::tuple<i64, i64, Owner>{300, 350, kOwnerUndefined}));
}

TEST(Tracker, CoalescesSameOwner) {
  SegmentTracker t(1000);
  t.update(0, 100, 2);
  t.update(100, 200, 2);
  t.update(200, 300, 2);
  // One owned segment plus the undefined tail.
  EXPECT_EQ(t.segmentCount(), 2u);
  EXPECT_TRUE(t.checkInvariants());
}

TEST(Tracker, OverwriteSplitsSegments) {
  SegmentTracker t(100);
  t.update(0, 100, 0);
  t.update(40, 60, 1);
  EXPECT_EQ(t.ownerAt(39), 0);
  EXPECT_EQ(t.ownerAt(40), 1);
  EXPECT_EQ(t.ownerAt(59), 1);
  EXPECT_EQ(t.ownerAt(60), 0);
  EXPECT_EQ(t.segmentCount(), 3u);
  EXPECT_TRUE(t.checkInvariants());
  // Writing it back re-coalesces.
  t.update(40, 60, 0);
  EXPECT_EQ(t.segmentCount(), 1u);
  EXPECT_TRUE(t.checkInvariants());
}

TEST(Tracker, ClampsOutOfRange) {
  SegmentTracker t(100);
  t.update(-50, 150, 3);
  EXPECT_EQ(t.segmentCount(), 1u);
  EXPECT_EQ(t.ownerAt(0), 3);
  EXPECT_EQ(t.ownerAt(99), 3);
  int calls = 0;
  t.query(200, 300, [&](i64, i64, Owner, u64) { ++calls; });
  EXPECT_EQ(calls, 0);
}

/// Property: tracker behaviour matches a flat per-byte ownership array.
void randomTrackerCheck(unsigned seed) {
  Rng rng(seed);
  const i64 size = 512;
  SegmentTracker t(size);
  std::vector<Owner> ref(static_cast<std::size_t>(size), kOwnerUndefined);
  for (int step = 0; step < 3000; ++step) {
    i64 b = rng.range(0, size - 1);
    i64 e = rng.range(b + 1, size);
    if (rng.chance(0.7)) {
      Owner o = static_cast<Owner>(rng.range(0, 5));
      t.update(b, e, o);
      for (i64 i = b; i < e; ++i) ref[static_cast<std::size_t>(i)] = o;
      ASSERT_TRUE(t.checkInvariants()) << "step " << step;
    } else {
      std::vector<Owner> got(static_cast<std::size_t>(e - b), kOwnerUndefined);
      i64 covered = 0;
      i64 prevEnd = b;
      t.query(b, e, [&](i64 sb, i64 se, Owner o, u64) {
        ASSERT_EQ(sb, prevEnd) << "query gap";
        prevEnd = se;
        covered += se - sb;
        for (i64 i = sb; i < se; ++i) got[static_cast<std::size_t>(i - b)] = o;
      });
      ASSERT_EQ(covered, e - b);
      for (i64 i = b; i < e; ++i)
        ASSERT_EQ(got[static_cast<std::size_t>(i - b)], ref[static_cast<std::size_t>(i)])
            << "step " << step << " pos " << i;
    }
  }
}

TEST(Tracker, RandomizedBTreeBackend) { randomTrackerCheck(7); }

TEST(Tracker, SharedCopiesRecordedAndInvalidated) {
  SegmentTracker t(1000);
  t.update(0, 1000, 0);
  t.addSharer(200, 600, 1);
  t.addSharer(400, 800, 2);
  EXPECT_TRUE(t.checkInvariants());
  std::vector<std::tuple<i64, i64, Owner, u64>> segs;
  t.query(0, 1000, [&](i64 b, i64 e, Owner o, u64 s) {
    segs.emplace_back(b, e, o, s);
  });
  ASSERT_EQ(segs.size(), 5u);
  EXPECT_EQ(segs[0], (std::tuple<i64, i64, Owner, u64>{0, 200, 0, 0b001}));
  EXPECT_EQ(segs[1], (std::tuple<i64, i64, Owner, u64>{200, 400, 0, 0b011}));
  EXPECT_EQ(segs[2], (std::tuple<i64, i64, Owner, u64>{400, 600, 0, 0b111}));
  EXPECT_EQ(segs[3], (std::tuple<i64, i64, Owner, u64>{600, 800, 0, 0b101}));
  EXPECT_EQ(segs[4], (std::tuple<i64, i64, Owner, u64>{800, 1000, 0, 0b001}));

  // A write by device 3 invalidates the replicas in its range.
  t.update(300, 700, 3);
  EXPECT_TRUE(t.checkInvariants());
  t.query(300, 700, [&](i64, i64, Owner o, u64 s) {
    EXPECT_EQ(o, 3);
    EXPECT_EQ(s, u64{0b1000});
  });
}

TEST(Tracker, AddSharerRecoalesces) {
  SegmentTracker t(100);
  t.update(0, 100, 0);
  // Fragment the sharer state, then make it uniform again.
  t.addSharer(20, 40, 1);
  EXPECT_EQ(t.segmentCount(), 3u);
  t.addSharer(0, 20, 1);
  t.addSharer(40, 100, 1);
  EXPECT_TRUE(t.checkInvariants());
  EXPECT_EQ(t.segmentCount(), 1u);
}

TEST(Tracker, SharerPropertyAgainstReference) {
  Rng rng(41);
  const i64 size = 256;
  SegmentTracker t(size);
  std::vector<Owner> refOwner(static_cast<std::size_t>(size), kOwnerUndefined);
  std::vector<u64> refSharers(static_cast<std::size_t>(size), 0);
  for (int step = 0; step < 2000; ++step) {
    i64 b = rng.range(0, size - 1);
    i64 e = rng.range(b + 1, size);
    if (rng.chance(0.5)) {
      Owner o = static_cast<Owner>(rng.range(0, 7));
      t.update(b, e, o);
      for (i64 i = b; i < e; ++i) {
        refOwner[static_cast<std::size_t>(i)] = o;
        refSharers[static_cast<std::size_t>(i)] = u64{1} << o;
      }
    } else if (rng.chance(0.6)) {
      int d = static_cast<int>(rng.range(0, 7));
      t.addSharer(b, e, d);
      for (i64 i = b; i < e; ++i) refSharers[static_cast<std::size_t>(i)] |= u64{1} << d;
    } else {
      t.query(b, e, [&](i64 sb, i64 se, Owner o, u64 s) {
        for (i64 i = sb; i < se; ++i) {
          ASSERT_EQ(o, refOwner[static_cast<std::size_t>(i)]) << "pos " << i;
          ASSERT_EQ(s, refSharers[static_cast<std::size_t>(i)]) << "pos " << i;
        }
      });
    }
    ASSERT_TRUE(t.checkInvariants()) << "step " << step;
  }
}

}  // namespace
}  // namespace polypart::rt
