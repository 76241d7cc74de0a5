// Directed tests for the segment tracker's sharer bookkeeping
// (rt/tracker.h): devices outside the 64-bit sharer bitmap and the
// begin == 0 / full-buffer boundary cases.  Random operation sequences are
// checked against a reference model in tests/tracker_fuzz_test.cpp.

#include <gtest/gtest.h>

#include "rt/tracker.h"

namespace polypart::rt {
namespace {

TEST(Tracker, FreshTrackerSatisfiesInvariants) {
  SegmentTracker t(1024);
  EXPECT_TRUE(t.checkInvariants());
  EXPECT_EQ(t.segmentCount(), 1u);
  EXPECT_EQ(t.ownerAt(0), kOwnerUndefined);
  SegmentTracker empty(0);
  EXPECT_TRUE(empty.checkInvariants());
}

TEST(Tracker, AddSharerOutOfRangeDeviceIsANoOp) {
  SegmentTracker t(1000);
  t.update(0, 400, 0);
  t.update(400, 1000, 1);
  ASSERT_TRUE(t.checkInvariants());
  const std::size_t before = t.segmentCount();
  // Devices without a sharer bit cannot be recorded; the call must not
  // split or otherwise disturb the segment structure (it used to splitAt
  // unconditionally and rely on coalesceRange to undo the damage).
  t.addSharer(100, 300, 64);
  t.addSharer(0, 1000, 1000);
  t.addSharer(50, 450, -3);
  EXPECT_EQ(t.segmentCount(), before);
  EXPECT_TRUE(t.checkInvariants());
  EXPECT_EQ(t.ownerAt(0), 0);
  EXPECT_EQ(t.ownerAt(999), 1);
}

TEST(Tracker, AddSharerBoundaryCases) {
  SegmentTracker t(256);
  t.update(0, 256, 2);
  t.addSharer(0, 64, 1);  // begin == 0
  EXPECT_TRUE(t.checkInvariants());
  t.addSharer(0, 256, 3);  // full buffer
  EXPECT_TRUE(t.checkInvariants());
  t.addSharer(0, 256, 64);  // full buffer, device out of range: no-op
  EXPECT_TRUE(t.checkInvariants());
  bool sawSharer3 = false;
  t.query(0, 256, [&](i64, i64, Owner owner, u64 sharers) {
    EXPECT_EQ(owner, 2);
    EXPECT_NE(sharers & (u64{1} << 2), 0u);  // owner is always a sharer
    if ((sharers & (u64{1} << 3)) != 0) sawSharer3 = true;
  });
  EXPECT_TRUE(sawSharer3);
  // A write collapses the sharer set back to the owner alone.
  t.update(0, 256, 0);
  EXPECT_EQ(t.segmentCount(), 1u);
  t.query(0, 256, [&](i64, i64, Owner owner, u64 sharers) {
    EXPECT_EQ(owner, 0);
    EXPECT_EQ(sharers, u64{1});
  });
}

}  // namespace
}  // namespace polypart::rt
