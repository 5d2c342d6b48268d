// Cache manager: option generation over live stats, reconfiguration, and
// the installed configuration's invariants.
#include "core/cache_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "api/registry.hpp"

namespace agar::core {
namespace {

/// exact-ewma's math over a plain map, counting snapshot() calls.
class SnapshotCounter final : public PopularityEstimator {
 public:
  static inline std::size_t snapshots = 0;

  explicit SnapshotCounter(const store::ObjectTable* objects)
      : objects_(objects) {}
  void record(ObjectId id) override { ++counts_[id]; }
  void roll_period() override {}
  [[nodiscard]] double popularity(ObjectId id) const override {
    const auto it = counts_.find(id);
    return it == counts_.end() ? 0.0 : static_cast<double>(it->second);
  }
  [[nodiscard]] PopularitySnapshot snapshot() const override {
    ++snapshots;
    PopularitySnapshot out;
    for (const auto& [id, n] : counts_) {
      out.emplace_back(id, static_cast<double>(n));
    }
    std::sort(out.begin(), out.end(), [this](const auto& a, const auto& b) {
      return objects_->key_less(a.first, b.first);
    });
    return out;
  }
  [[nodiscard]] std::size_t tracked_keys() const override {
    return counts_.size();
  }
  [[nodiscard]] std::string name() const override {
    return "snapshot-counter";
  }

 private:
  const store::ObjectTable* objects_;
  std::map<ObjectId, std::uint64_t> counts_;
};

const api::EstimatorRegistration kSnapshotCounter{{
    "snapshot-counter", "snapshot counter", "test estimator", api::ParamSchema{},
    [](const api::EstimatorContext& ctx, const api::ParamMap&) {
      return std::make_unique<SnapshotCounter>(ctx.objects);
    },
    {}}};

class CacheManagerTest : public ::testing::Test {
 protected:
  CacheManagerTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, {}, 99)),
        backend_(6, ec::CodecParams{9, 3},
                 std::make_shared<ec::RoundRobinPlacement>(false)) {
    for (int i = 0; i < 20; ++i) {
      backend_.register_object("object" + std::to_string(i), 1_MB);
    }
  }

  std::unique_ptr<CacheManager> make_manager(
      std::size_t cache_bytes,
      const std::string& estimator = "exact-ewma") {
    RegionManagerParams rp;
    rp.local_region = sim::region::kFrankfurt;
    region_manager_ =
        std::make_unique<RegionManager>(&backend_, &network_, rp);
    region_manager_->probe();
    RequestMonitorParams mp;
    mp.estimator = estimator;
    monitor_ = std::make_unique<RequestMonitor>(mp, &backend_.objects());
    cache_ = std::make_unique<cache::StaticConfigCache>(cache_bytes);
    CacheManagerParams cp;
    cp.candidate_weights = {1, 3, 5, 7, 9};
    return std::make_unique<CacheManager>(&backend_, region_manager_.get(),
                                          monitor_.get(), cache_.get(), cp);
  }

  sim::Topology topology_;
  sim::Network network_;
  store::BackendCluster backend_;
  std::unique_ptr<RegionManager> region_manager_;
  std::unique_ptr<RequestMonitor> monitor_;
  std::unique_ptr<cache::StaticConfigCache> cache_;
};

TEST_F(CacheManagerTest, NullDependenciesThrow) {
  RegionManagerParams rp;
  RegionManager rm(&backend_, &network_, rp);
  RequestMonitor mon({}, &backend_.objects());
  cache::StaticConfigCache cache(1_MB);
  CacheManagerParams cp;
  EXPECT_THROW(CacheManager(nullptr, &rm, &mon, &cache, cp),
               std::invalid_argument);
  EXPECT_THROW(CacheManager(&backend_, nullptr, &mon, &cache, cp),
               std::invalid_argument);
  EXPECT_THROW(CacheManager(&backend_, &rm, nullptr, &cache, cp),
               std::invalid_argument);
  EXPECT_THROW(CacheManager(&backend_, &rm, &mon, nullptr, cp),
               std::invalid_argument);
}

TEST_F(CacheManagerTest, EmptyStatsYieldEmptyConfiguration) {
  auto mgr = make_manager(10_MB);
  const auto& config = mgr->reconfigure();
  EXPECT_TRUE(config.entries.empty());
  EXPECT_EQ(cache_->configured_size(), 0u);
}

TEST_F(CacheManagerTest, HotKeysGetConfigured) {
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 50; ++i) monitor_->record_access("object0");
  for (int i = 0; i < 10; ++i) monitor_->record_access("object1");
  const auto& config = mgr->reconfigure();
  EXPECT_TRUE(config.entries.contains("object0"));
  EXPECT_GT(cache_->configured_size(), 0u);
}

TEST_F(CacheManagerTest, ConfigurationFitsCapacity) {
  auto mgr = make_manager(10_MB);
  for (int k = 0; k < 20; ++k) {
    for (int i = 0; i < 20 - k; ++i) {
      monitor_->record_access("object" + std::to_string(k));
    }
  }
  const auto& config = mgr->reconfigure();
  EXPECT_LE(config.total_bytes, 10_MB);
  EXPECT_GT(config.total_chunks, 0u);
}

TEST_F(CacheManagerTest, HotterKeysGetAtLeastAsManyChunks) {
  auto mgr = make_manager(5_MB);
  for (int i = 0; i < 100; ++i) monitor_->record_access("object0");
  for (int i = 0; i < 5; ++i) monitor_->record_access("object1");
  const auto& config = mgr->reconfigure();
  if (config.entries.contains("object0") &&
      config.entries.contains("object1")) {
    EXPECT_GE(config.entries.at("object0").weight,
              config.entries.at("object1").weight);
  } else {
    EXPECT_TRUE(config.entries.contains("object0"));
  }
}

TEST_F(CacheManagerTest, UnknownKeysNeverReachPlanning) {
  // The monitor counts object ids; a key the backend never interned has
  // none, so the key-string adapter refuses it instead of tracking it.
  auto mgr = make_manager(10_MB);
  EXPECT_THROW(monitor_->record_access("not-in-backend"), std::out_of_range);
  const auto& config = mgr->reconfigure();
  EXPECT_FALSE(config.entries.contains("not-in-backend"));
}

TEST_F(CacheManagerTest, WeightQuantumIsChunkSizeForUniformObjects) {
  auto mgr = make_manager(10_MB);
  monitor_->record_access("object0");
  EXPECT_EQ(mgr->weight_quantum_bytes(),
            backend_.object_info("object0").chunk_size);
}

TEST_F(CacheManagerTest, ContainsChunkReflectsChosenOption) {
  auto mgr = make_manager(50_MB);
  for (int i = 0; i < 50; ++i) monitor_->record_access("object0");
  const auto& config = mgr->reconfigure();
  ASSERT_TRUE(config.entries.contains("object0"));
  const auto& opt = config.entries.at("object0");
  for (const ChunkIndex c : opt.chunks) {
    EXPECT_TRUE(config.contains_chunk("object0", c));
  }
  EXPECT_FALSE(config.contains_chunk("object19", 0));
}

TEST_F(CacheManagerTest, InstalledKeysMatchConfiguration) {
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 30; ++i) monitor_->record_access("object0");
  for (int i = 0; i < 20; ++i) monitor_->record_access("object1");
  const auto& config = mgr->reconfigure();
  std::size_t chunk_keys = 0;
  for (const auto& [key, opt] : config.entries) {
    chunk_keys += opt.chunks.size();
    for (const ChunkIndex c : opt.chunks) {
      EXPECT_TRUE(cache_->is_configured(backend_.objects().chunk(ChunkId{key, c})));
      EXPECT_TRUE(config.contains_chunk(key, c));
      EXPECT_TRUE(config.contains_chunk(opt.object, c));
    }
  }
  EXPECT_EQ(cache_->configured_size(), chunk_keys);
}

TEST_F(CacheManagerTest, ReconfigureRollsThePeriod) {
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 100; ++i) monitor_->record_access("object0");
  mgr->reconfigure();
  const ObjectId id = backend_.objects().id_of("object0");
  EXPECT_DOUBLE_EQ(monitor_->popularity(id), 80.0);
  mgr->reconfigure();  // idle period decays popularity
  EXPECT_DOUBLE_EQ(monitor_->popularity(id), 16.0);
}

TEST_F(CacheManagerTest, AdaptsWhenPopularityShifts) {
  auto mgr = make_manager(5_MB);
  for (int i = 0; i < 100; ++i) monitor_->record_access("object0");
  mgr->reconfigure();
  ASSERT_TRUE(mgr->current().entries.contains("object0"));

  // The workload moves to object5 for several periods; object0 decays.
  for (int period = 0; period < 8; ++period) {
    for (int i = 0; i < 100; ++i) monitor_->record_access("object5");
    mgr->reconfigure();
  }
  EXPECT_TRUE(mgr->current().entries.contains("object5"));
  const auto& entries = mgr->current().entries;
  if (entries.contains("object0")) {
    EXPECT_LE(entries.at("object0").weight, entries.at("object5").weight);
  }
}

TEST_F(CacheManagerTest, WeightHistogramCountsObjects) {
  auto mgr = make_manager(50_MB);
  for (int k = 0; k < 10; ++k) {
    for (int i = 0; i < 100 / (k + 1); ++i) {
      monitor_->record_access("object" + std::to_string(k));
    }
  }
  const auto& config = mgr->reconfigure();
  const auto hist = config.weight_histogram();
  std::size_t total = 0;
  for (const auto& [w, count] : hist) total += count;
  EXPECT_EQ(total, config.entries.size());
}

TEST_F(CacheManagerTest, LargerCacheNeverLowersValue) {
  for (int i = 0; i < 50; ++i) {
    // fresh monitor state per manager; record into each manager's monitor.
  }
  auto small = make_manager(5_MB);
  for (int k = 0; k < 10; ++k) {
    for (int i = 0; i < 100 - k * 10; ++i) {
      monitor_->record_access("object" + std::to_string(k));
    }
  }
  const double small_value = small->reconfigure().total_value;

  auto large = make_manager(20_MB);
  for (int k = 0; k < 10; ++k) {
    for (int i = 0; i < 100 - k * 10; ++i) {
      monitor_->record_access("object" + std::to_string(k));
    }
  }
  const double large_value = large->reconfigure().total_value;
  EXPECT_GE(large_value, small_value - 1e-9);
}

TEST_F(CacheManagerTest, OneMonitorSnapshotPerReconfiguration) {
  // The quantum and the option groups come from one snapshot: each
  // snapshot copies and sorts every tracked key.
  auto mgr = make_manager(10_MB, "snapshot-counter");
  for (int i = 0; i < 30; ++i) monitor_->record_access("object0");
  for (int i = 0; i < 10; ++i) monitor_->record_access("object4");
  SnapshotCounter::snapshots = 0;
  const auto& config = mgr->reconfigure();
  EXPECT_EQ(SnapshotCounter::snapshots, 1u);
  EXPECT_FALSE(config.entries.empty());
}

}  // namespace
}  // namespace agar::core
