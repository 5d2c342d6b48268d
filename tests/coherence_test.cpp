// Write coherence (§VI extension): versions, invalidation, write ordering.
#include <gtest/gtest.h>

#include "cache/lru_cache.hpp"
#include "cache/static_cache.hpp"
#include "paxos/coherence.hpp"
#include "sim/topology.hpp"

namespace agar::paxos {
namespace {

TEST(WriteRecord, EncodeDecodeRoundTrip) {
  WriteRecord r{"object42", 7};
  const WriteRecord back = WriteRecord::decode(r.encode());
  EXPECT_EQ(back.key, "object42");
  EXPECT_EQ(back.version, 7u);
}

TEST(WriteRecord, KeysWithAtSignsSurvive) {
  WriteRecord r{"user@example", 3};
  const WriteRecord back = WriteRecord::decode(r.encode());
  EXPECT_EQ(back.key, "user@example");
  EXPECT_EQ(back.version, 3u);
}

TEST(WriteRecord, MalformedThrows) {
  EXPECT_THROW((void)WriteRecord::decode("no-version-marker"),
               std::invalid_argument);
}

class CoherenceTest : public ::testing::Test {
 protected:
  CoherenceTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, {}, 21)),
        coordinator_(6, &network_, &objects_),
        fra_cache_(1_MB),
        syd_cache_(1_MB) {
    coordinator_.attach_cache(sim::region::kFrankfurt, &fra_cache_, 12);
    coordinator_.attach_cache(sim::region::kSydney, &syd_cache_, 12);
  }

  void populate(cache::CacheEngine& cache, const ObjectKey& key) {
    objects_.intern(key);
    for (ChunkIndex i = 0; i < 12; ++i) {
      cache.put(chunk(key, i), Bytes(16, 1));
    }
  }

  ChunkRef chunk(const ObjectKey& key, ChunkIndex i) const {
    return objects_.chunk(ChunkId{key, i});
  }

  sim::Topology topology_;
  sim::Network network_;
  store::ObjectTable objects_;
  CoherenceCoordinator coordinator_;
  cache::LruCache fra_cache_;
  cache::LruCache syd_cache_;
};

TEST_F(CoherenceTest, NullCacheThrows) {
  EXPECT_THROW(coordinator_.attach_cache(0, nullptr, 12),
               std::invalid_argument);
}

TEST_F(CoherenceTest, VersionsStartAtZeroAndIncrement) {
  EXPECT_EQ(coordinator_.version("k"), 0u);
  ASSERT_TRUE(coordinator_.commit_write(0, "k").has_value());
  EXPECT_EQ(coordinator_.version("k"), 1u);
  ASSERT_TRUE(coordinator_.commit_write(3, "k").has_value());
  EXPECT_EQ(coordinator_.version("k"), 2u);
}

TEST_F(CoherenceTest, WriteInvalidatesAllRegionCaches) {
  populate(fra_cache_, "obj");
  populate(syd_cache_, "obj");
  populate(fra_cache_, "other");
  ASSERT_TRUE(coordinator_.commit_write(0, "obj").has_value());
  for (ChunkIndex i = 0; i < 12; ++i) {
    EXPECT_FALSE(fra_cache_.contains(chunk("obj", i)));
    EXPECT_FALSE(syd_cache_.contains(chunk("obj", i)));
    // Unrelated keys untouched.
    EXPECT_TRUE(fra_cache_.contains(chunk("other", i)));
  }
  EXPECT_EQ(coordinator_.invalidations_applied(), 24u);
}

TEST_F(CoherenceTest, CommitLatencyIsPositiveAndBounded) {
  const auto latency = coordinator_.commit_write(sim::region::kSydney, "k");
  ASSERT_TRUE(latency.has_value());
  EXPECT_GT(*latency, 0.0);
  EXPECT_LT(*latency, 4000.0);
}

TEST_F(CoherenceTest, NoQuorumNoCommit) {
  network_.fail_region(1);
  network_.fail_region(2);
  network_.fail_region(3);
  populate(fra_cache_, "obj");
  EXPECT_FALSE(coordinator_.commit_write(0, "obj").has_value());
  // Failed commit must not invalidate.
  EXPECT_TRUE(fra_cache_.contains(chunk("obj", 0)));
  EXPECT_EQ(coordinator_.version("obj"), 0u);
}

TEST_F(CoherenceTest, ConcurrentWritersSerializeThroughLog) {
  for (int i = 0; i < 10; ++i) {
    const RegionId writer = static_cast<RegionId>(i % 6);
    ASSERT_TRUE(coordinator_.commit_write(writer, "hot").has_value());
  }
  EXPECT_EQ(coordinator_.version("hot"), 10u);
  EXPECT_EQ(coordinator_.log().decided_prefix(), 10u);
}

TEST_F(CoherenceTest, InvalidationsApplyInLogSlotOrder) {
  // Interleaved writes to two objects from different regions: the log
  // serializes them, and decoding the slots back must reproduce the exact
  // commit order with per-key versions increasing monotonically — the
  // ordering guarantee that makes write-invalidate coherent.
  const std::vector<std::pair<RegionId, ObjectKey>> writes = {
      {0, "alpha"}, {5, "beta"}, {3, "alpha"}, {1, "beta"}, {4, "alpha"},
  };
  for (const auto& [region, key] : writes) {
    ASSERT_TRUE(coordinator_.commit_write(region, key).has_value());
  }
  ASSERT_EQ(coordinator_.log().decided_prefix(), writes.size());
  std::unordered_map<ObjectKey, std::uint64_t> seen;
  for (std::size_t slot = 0; slot < writes.size(); ++slot) {
    const auto record = coordinator_.log().learned(slot);
    ASSERT_TRUE(record.has_value());
    const WriteRecord w = WriteRecord::decode(*record);
    EXPECT_EQ(w.key, writes[slot].second) << "slot " << slot;
    EXPECT_EQ(w.version, ++seen[w.key]) << "slot " << slot;
  }
  EXPECT_EQ(coordinator_.version("alpha"), 3u);
  EXPECT_EQ(coordinator_.version("beta"), 2u);
}

TEST_F(CoherenceTest, StaticConfigCacheAlsoInvalidates) {
  cache::StaticConfigCache agar_cache(1_MB);
  const ObjectId obj = objects_.intern("obj");
  std::vector<ChunkMask> configured(obj + 1, 0);
  configured[obj] = (ChunkMask{1} << 12) - 1;  // all twelve chunks
  agar_cache.install_configuration(std::move(configured));
  for (ChunkIndex i = 0; i < 12; ++i) {
    agar_cache.put(chunk("obj", i), Bytes(8, 2));
  }
  coordinator_.attach_cache(sim::region::kDublin, &agar_cache, 12);
  ASSERT_TRUE(coordinator_.commit_write(0, "obj").has_value());
  EXPECT_EQ(agar_cache.used_bytes(), 0u);
  // The configuration itself survives: the next read repopulates.
  EXPECT_TRUE(agar_cache.is_configured(chunk("obj", 0)));
}

}  // namespace
}  // namespace agar::paxos
