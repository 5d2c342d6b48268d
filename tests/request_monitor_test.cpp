// Request monitor: EWMA popularity over periods plus in-flight blending.
#include "core/request_monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "chunk_keys.hpp"

namespace agar::core {
namespace {

store::ObjectTable& objects() { return test_keys::names(); }
ObjectId id(const std::string& key) { return objects().intern(key); }

TEST(RequestMonitor, ChargesProcessingOverhead) {
  RequestMonitorParams p;
  p.processing_ms = 0.5;  // the paper's measured overhead (§VI)
  RequestMonitor m(p, &objects());
  EXPECT_DOUBLE_EQ(m.record_access(id("a")), 0.5);
}

TEST(RequestMonitor, CountsAccesses) {
  RequestMonitor m({}, &objects());
  m.record_access(id("a"));
  m.record_access(id("a"));
  m.record_access(id("b"));
  EXPECT_EQ(m.accesses(), 3u);
  EXPECT_EQ(m.tracked_keys(), 2u);
}

TEST(RequestMonitor, PopularityBlendsCurrentPeriod) {
  RequestMonitor m({}, &objects());
  for (int i = 0; i < 100; ++i) m.record_access(id("key1"));
  // Before the period rolls, popularity reflects alpha * current count
  // (paper example: 0.8 * 100 + 0.2 * 0 = 80).
  EXPECT_DOUBLE_EQ(m.popularity(id("key1")), 80.0);
}

TEST(RequestMonitor, RollPeriodLocksInEwma) {
  RequestMonitor m({}, &objects());
  for (int i = 0; i < 100; ++i) m.record_access(id("key1"));
  m.roll_period();
  EXPECT_DOUBLE_EQ(m.popularity(id("key1")), 80.0);
  for (int i = 0; i < 50; ++i) m.record_access(id("key1"));
  m.roll_period();
  EXPECT_DOUBLE_EQ(m.popularity(id("key1")), 56.0);
}

TEST(RequestMonitor, UnknownKeyHasZeroPopularity) {
  RequestMonitor m({}, &objects());
  EXPECT_DOUBLE_EQ(m.popularity(id("ghost")), 0.0);
}

TEST(RequestMonitor, SnapshotIsSortedByKey) {
  // Sorted order is a contract (planner-input determinism), not a
  // courtesy: no caller-side sort here.
  RequestMonitor m({}, &objects());
  m.record_access(id("hot"));
  m.record_access(id("hot"));
  m.record_access(id("cold"));
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, id("cold"));
  EXPECT_DOUBLE_EQ(snap[0].second, 0.8);
  EXPECT_EQ(snap[1].first, id("hot"));
  EXPECT_DOUBLE_EQ(snap[1].second, 1.6);
}

TEST(RequestMonitor, SnapshotStaysSortedUnderManyKeys) {
  RequestMonitor m({}, &objects());
  for (int i = 0; i < 200; ++i) {
    m.record_access(id("object" + std::to_string((i * 131) % 97)));
  }
  const auto snap = m.snapshot();
  EXPECT_TRUE(std::is_sorted(
      snap.begin(), snap.end(),
      [](const auto& a, const auto& b) {
        return objects().key_less(a.first, b.first);
      }));
}

TEST(RequestMonitor, CountMinEstimatorRunsBehindTheMonitor) {
  RequestMonitorParams p;
  p.estimator = "count-min";
  p.estimator_params.set("width", "256");
  p.estimator_params.set("depth", "4");
  RequestMonitor m(p, &objects());
  EXPECT_EQ(m.estimator().name(), "count-min");
  for (int i = 0; i < 100; ++i) m.record_access(id("hot"));
  m.record_access(id("cold"));
  EXPECT_GT(m.popularity(id("hot")), m.popularity(id("cold")));
  m.roll_period();
  EXPECT_GT(m.popularity(id("hot")), 0.0);
  const auto snap = m.snapshot();
  EXPECT_TRUE(std::is_sorted(
      snap.begin(), snap.end(),
      [](const auto& a, const auto& b) {
        return objects().key_less(a.first, b.first);
      }));
}

TEST(RequestMonitor, UnknownEstimatorThrows) {
  RequestMonitorParams p;
  p.estimator = "oracle";
  EXPECT_THROW(RequestMonitor(p, &objects()), std::invalid_argument);
}

TEST(RequestMonitor, PopularityDecaysAcrossIdlePeriods) {
  RequestMonitor m({}, &objects());
  for (int i = 0; i < 10; ++i) m.record_access(id("k"));
  m.roll_period();
  const double p1 = m.popularity(id("k"));
  m.roll_period();
  const double p2 = m.popularity(id("k"));
  EXPECT_LT(p2, p1);
}

TEST(RequestMonitor, CustomAlpha) {
  RequestMonitorParams p;
  p.ewma_alpha = 0.5;
  RequestMonitor m(p, &objects());
  for (int i = 0; i < 10; ++i) m.record_access(id("k"));
  m.roll_period();
  EXPECT_DOUBLE_EQ(m.popularity(id("k")), 5.0);
}

TEST(RequestMonitor, KeyAdapterResolvesThroughTheObjectTable) {
  RequestMonitor m({}, &objects());
  const ObjectId known = id("adapter-known");
  m.record_access("adapter-known");
  EXPECT_DOUBLE_EQ(m.popularity(known), 0.8);
  EXPECT_THROW(m.record_access("adapter-never-interned"), std::out_of_range);
  EXPECT_THROW(RequestMonitor({}, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace agar::core
