// Per-period frequency tracking with EWMA smoothing.
#include "stats/freq_tracker.hpp"

#include <gtest/gtest.h>

namespace agar::stats {
namespace {

TEST(FreqTracker, CountsWithinPeriod) {
  FreqTracker t(0.8);
  t.record(0);
  t.record(0);
  t.record(1);
  EXPECT_EQ(t.current_count(0), 2u);
  EXPECT_EQ(t.current_count(1), 1u);
  EXPECT_EQ(t.current_count(2), 0u);
}

TEST(FreqTracker, PopularityZeroBeforeFirstRoll) {
  FreqTracker t(0.8);
  t.record(0);
  EXPECT_DOUBLE_EQ(t.popularity(0), 0.0);
}

TEST(FreqTracker, RollAppliesPaperFormula) {
  FreqTracker t(0.8);
  for (int i = 0; i < 100; ++i) t.record(3);
  t.roll_period();
  EXPECT_DOUBLE_EQ(t.popularity(3), 80.0);  // paper's §IV example
  for (int i = 0; i < 50; ++i) t.record(3);
  t.roll_period();
  EXPECT_DOUBLE_EQ(t.popularity(3), 56.0);  // 0.8*50 + 0.2*80
}

TEST(FreqTracker, RollResetsCounts) {
  FreqTracker t(0.8);
  t.record(0);
  t.roll_period();
  EXPECT_EQ(t.current_count(0), 0u);
}

TEST(FreqTracker, ColdKeysDecayAway) {
  FreqTracker t(0.8, /*drop_below=*/1e-3);
  t.record(4);
  t.roll_period();  // popularity 0.8
  EXPECT_GT(t.popularity(4), 0.0);
  // 0.8 * 0.2^n < 1e-3 after a handful of idle periods.
  for (int i = 0; i < 6; ++i) t.roll_period();
  EXPECT_DOUBLE_EQ(t.popularity(4), 0.0);
  EXPECT_EQ(t.tracked_keys(), 0u);
}

TEST(FreqTracker, HotKeysStayTracked) {
  FreqTracker t(0.8);
  for (int p = 0; p < 10; ++p) {
    for (int i = 0; i < 20; ++i) t.record(7);
    t.roll_period();
  }
  EXPECT_NEAR(t.popularity(7), 20.0, 0.1);
  EXPECT_EQ(t.tracked_keys(), 1u);
}

TEST(FreqTracker, TrackedListsRecordedKeys) {
  FreqTracker t(0.8);
  t.record(0);
  t.record(1);
  t.roll_period();
  auto tracked = t.tracked();
  std::sort(tracked.begin(), tracked.end());
  ASSERT_EQ(tracked, (std::vector<ObjectId>{0, 1}));
  EXPECT_DOUBLE_EQ(t.popularity(0), 0.8);
}

TEST(FreqTracker, PeriodsCount) {
  FreqTracker t;
  EXPECT_EQ(t.periods(), 0u);
  t.roll_period();
  t.roll_period();
  EXPECT_EQ(t.periods(), 2u);
}

TEST(FreqTracker, RollReturnsTrackedKeyCount) {
  FreqTracker t(0.8);
  t.record(0);
  t.record(1);
  EXPECT_EQ(t.roll_period(), 2u);
}

TEST(FreqTracker, DistinguishesManyKeys) {
  FreqTracker t(0.8);
  for (int i = 0; i < 100; ++i) {
    const auto id = static_cast<ObjectId>(i);
    for (int j = 0; j <= i; ++j) t.record(id);
  }
  t.roll_period();
  // Popularity must be monotone in access count.
  EXPECT_LT(t.popularity(10), t.popularity(50));
  EXPECT_LT(t.popularity(50), t.popularity(99));
}

}  // namespace
}  // namespace agar::stats
