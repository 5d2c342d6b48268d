// Popularity estimators: the exact-ewma entry reproduces the paper's
// monitor math, count-min never under-estimates and stays within its
// memory bound, and both honor the sorted-snapshot determinism contract.
#include "core/popularity_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "api/registry.hpp"
#include "chunk_keys.hpp"
#include "common/rng.hpp"

namespace agar::core {
namespace {

store::ObjectTable& objects() { return test_keys::names(); }
ObjectId id(const std::string& key) { return objects().intern(key); }

std::unique_ptr<PopularityEstimator> make_estimator(
    const std::string& name, double alpha = 0.8,
    const api::ParamMap& params = {}) {
  api::EstimatorContext ctx;
  ctx.ewma_alpha = alpha;
  ctx.objects = &objects();
  return api::EstimatorRegistry::instance().create(name, ctx, params);
}

class EstimatorContract : public ::testing::TestWithParam<std::string> {};

TEST_P(EstimatorContract, SnapshotIsSortedByKey) {
  auto est = make_estimator(GetParam());
  // Insertion order deliberately unsorted.
  for (const char* key : {"zebra", "apple", "mango", "kiwi", "apple"}) {
    est->record(id(key));
  }
  const auto snap = est->snapshot();
  ASSERT_GE(snap.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      snap.begin(), snap.end(),
      [](const auto& a, const auto& b) {
        return objects().key_less(a.first, b.first);
      }));
}

TEST_P(EstimatorContract, ColdStartStillRanksKeys) {
  auto est = make_estimator(GetParam());
  for (int i = 0; i < 100; ++i) est->record(id("hot"));
  for (int i = 0; i < 3; ++i) est->record(id("cold"));
  // Before the first roll, blending must already rank hot over cold
  // (paper: first iteration uses alpha * freq).
  EXPECT_GT(est->popularity(id("hot")), est->popularity(id("cold")));
  EXPECT_GT(est->popularity(id("cold")), 0.0);
}

TEST_P(EstimatorContract, IdlePeriodsDecayPopularity) {
  auto est = make_estimator(GetParam());
  for (int i = 0; i < 50; ++i) est->record(id("k"));
  est->roll_period();
  const double p1 = est->popularity(id("k"));
  est->roll_period();
  const double p2 = est->popularity(id("k"));
  EXPECT_LT(p2, p1);
  EXPECT_GT(p1, 0.0);
}

TEST_P(EstimatorContract, DecayedKeysAreDropped) {
  auto est = make_estimator(GetParam());
  est->record(id("once"));
  for (int i = 0; i < 40; ++i) est->roll_period();
  EXPECT_EQ(est->tracked_keys(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Registered, EstimatorContract,
    ::testing::ValuesIn(api::EstimatorRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ExactEwmaEstimator, ReproducesThePapersMonitorMath) {
  auto est = make_estimator("exact-ewma");
  for (int i = 0; i < 100; ++i) est->record(id("key1"));
  EXPECT_DOUBLE_EQ(est->popularity(id("key1")), 80.0);  // 0.8 * 100
  est->roll_period();
  EXPECT_DOUBLE_EQ(est->popularity(id("key1")), 80.0);
  for (int i = 0; i < 50; ++i) est->record(id("key1"));
  est->roll_period();
  EXPECT_DOUBLE_EQ(est->popularity(id("key1")), 56.0);  // 0.8*50 + 0.2*80
  EXPECT_EQ(est->name(), "exact-ewma");
}

TEST(CountMinEstimator, NeverUnderEstimatesTheExactCounts) {
  auto exact = make_estimator("exact-ewma");
  auto sketch = make_estimator("count-min");
  Rng rng(7);
  for (int period = 0; period < 5; ++period) {
    for (int i = 0; i < 2000; ++i) {
      const std::string key = "object" + std::to_string(rng.next_below(50));
      exact->record(id(key));
      sketch->record(id(key));
    }
    // The sketch can only over-count (collisions), never under-count, and
    // the EWMA preserves that ordering period over period.
    for (int k = 0; k < 50; ++k) {
      const std::string key = "object" + std::to_string(k);
      EXPECT_GE(sketch->popularity(id(key)) + 1e-9, exact->popularity(id(key)))
          << key << " period " << period;
    }
    exact->roll_period();
    sketch->roll_period();
  }
}

TEST(CountMinEstimator, HonorsTheCandidateKeyBound) {
  api::ParamMap params;
  params.set("max_keys", "16");
  auto est = make_estimator("count-min", 0.8, params);
  for (int i = 0; i < 500; ++i) est->record(id("key" + std::to_string(i)));
  EXPECT_LE(est->tracked_keys(), 16u);
  EXPECT_LE(est->snapshot().size(), 16u);
}

TEST(CountMinEstimator, HotNewcomerDisplacesAWeakCandidate) {
  api::ParamMap params;
  params.set("max_keys", "4");
  auto est = make_estimator("count-min", 0.8, params);
  for (int k = 0; k < 4; ++k) est->record(id("filler" + std::to_string(k)));
  // A key far hotter than the one-hit fillers must enter the candidate set
  // even though it is full.
  for (int i = 0; i < 100; ++i) est->record(id("surge"));
  const auto snap = est->snapshot();
  const bool has_surge =
      std::any_of(snap.begin(), snap.end(),
                  [](const auto& kv) { return kv.first == id("surge"); });
  EXPECT_TRUE(has_surge);
  EXPECT_LE(snap.size(), 4u);
}

TEST(CountMinEstimator, SketchParamsAreApplied) {
  api::ParamMap params;
  params.set("width", "32");
  params.set("depth", "2");
  auto est = make_estimator("count-min", 0.8, params);
  for (int i = 0; i < 10; ++i) est->record(id("k"));
  EXPECT_GT(est->popularity(id("k")), 0.0);
  EXPECT_EQ(est->name(), "count-min");
}

TEST(EstimatorRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    (void)make_estimator("hyperloglog");
    FAIL() << "expected UnknownNameError";
  } catch (const api::UnknownNameError& e) {
    const auto& known = e.known_names();
    EXPECT_NE(std::find(known.begin(), known.end(), "exact-ewma"),
              known.end());
    EXPECT_NE(std::find(known.begin(), known.end(), "count-min"),
              known.end());
  }
}

}  // namespace
}  // namespace agar::core
