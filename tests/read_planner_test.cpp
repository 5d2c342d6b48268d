// Shared read planner: source resolution invariants for any configuration
// policy (Agar's knapsack or the periodic LFU baseline).
#include "core/read_planner.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

namespace agar::core {
namespace {

class ReadPlannerTest : public ::testing::Test {
 protected:
  ReadPlannerTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, zero_jitter(), 4)),
        backend_(6, ec::CodecParams{9, 3},
                 std::make_shared<ec::RoundRobinPlacement>(false)),
        cache_(1_MB) {
    id_ = backend_.register_object("obj", 90_KB);
    RegionManagerParams p;
    p.local_region = sim::region::kFrankfurt;
    region_manager_ =
        std::make_unique<RegionManager>(&backend_, &network_, p);
    region_manager_->probe();
  }

  static sim::LatencyModelParams zero_jitter() {
    sim::LatencyModelParams p;
    p.jitter_fraction = 0.0;
    return p;
  }

  ReadPlan plan(const ConfiguredChunkFn& configured) {
    return plan_chunk_sources(backend_, *region_manager_, cache_, configured,
                              "obj");
  }

  /// The configuration holding exactly these chunks of "obj".
  std::vector<ChunkMask> configure(std::initializer_list<ChunkIndex> chunks) {
    std::vector<ChunkMask> masks(id_ + 1, 0);
    for (const ChunkIndex idx : chunks) masks[id_] |= ChunkMask{1} << idx;
    return masks;
  }
  ChunkRef chunk(ChunkIndex idx) const { return backend_.chunk(id_, idx); }

  static ConfiguredChunkFn nothing() {
    return [](const ObjectKey&, ChunkIndex) { return false; };
  }

  sim::Topology topology_;
  sim::Network network_;
  store::BackendCluster backend_;
  cache::StaticConfigCache cache_;
  std::unique_ptr<RegionManager> region_manager_;
  ObjectId id_ = 0;
};

TEST_F(ReadPlannerTest, ColdPlanFetchesKCheapest) {
  const ReadPlan p = plan(nothing());
  EXPECT_TRUE(p.from_cache.empty());
  EXPECT_EQ(p.from_backend.size(), 9u);
  EXPECT_TRUE(p.async_populate.empty());
  EXPECT_TRUE(p.populate_after_read.empty());
  // No chunk from Sydney (the two most distant) and at most one from Tokyo.
  std::size_t tokyo = 0;
  for (const auto& [idx, region] : p.from_backend) {
    EXPECT_NE(region, sim::region::kSydney);
    tokyo += (region == sim::region::kTokyo);
  }
  EXPECT_LE(tokyo, 1u);
}

TEST_F(ReadPlannerTest, PlanNeverDuplicatesChunks) {
  // Configure + populate some chunks, leave others configured-but-absent.
  cache_.install_configuration(configure({4, 3, 9}));
  cache_.put(chunk(4), Bytes(8, 1));
  const auto configured = [](const ObjectKey&, ChunkIndex idx) {
    return idx == 4 || idx == 3 || idx == 9;
  };
  const ReadPlan p = plan(configured);
  std::set<ChunkIndex> seen;
  for (const ChunkIndex c : p.from_cache) {
    EXPECT_TRUE(seen.insert(c).second);
  }
  for (const auto& [c, r] : p.from_backend) {
    EXPECT_TRUE(seen.insert(c).second);
  }
  EXPECT_EQ(p.chunks_on_path(), 9u);
}

TEST_F(ReadPlannerTest, ResidentChunksComeFromCache) {
  cache_.install_configuration(configure({4}));
  cache_.put(chunk(4), Bytes(8, 1));
  const ReadPlan p = plan(
      [](const ObjectKey&, ChunkIndex idx) { return idx == 4; });
  ASSERT_EQ(p.from_cache.size(), 1u);
  EXPECT_EQ(p.from_cache[0], 4u);
  EXPECT_EQ(p.from_backend.size(), 8u);
}

TEST_F(ReadPlannerTest, ConfiguredOnPathChunksMarkedForWriteBack) {
  // Chunk 4 (Tokyo) is configured but not resident; it is the 9th-cheapest
  // so it is fetched on-path and should be written back.
  const ReadPlan p = plan(
      [](const ObjectKey&, ChunkIndex idx) { return idx == 4; });
  ASSERT_EQ(p.populate_after_read.size(), 1u);
  EXPECT_EQ(p.populate_after_read[0], 4u);
  EXPECT_TRUE(p.async_populate.empty());
}

TEST_F(ReadPlannerTest, ConfiguredOffPathChunksPopulateAsync) {
  // Chunk 5 (Sydney) is never fetched on-path from Frankfurt; configuring
  // it forces an asynchronous population fetch.
  const ReadPlan p = plan(
      [](const ObjectKey&, ChunkIndex idx) { return idx == 5; });
  ASSERT_EQ(p.async_populate.size(), 1u);
  EXPECT_EQ(p.async_populate[0].first, 5u);
  EXPECT_EQ(p.async_populate[0].second, sim::region::kSydney);
  EXPECT_TRUE(p.populate_after_read.empty());
}

TEST_F(ReadPlannerTest, FullResidencyNeedsNoBackend) {
  // The nine needed chunks from Frankfurt: all but Sydney's {5, 11} and
  // Tokyo's second chunk {10}.
  const auto masks = configure({0, 1, 2, 3, 4, 6, 7, 8, 9});
  cache_.install_configuration(masks);
  for (const ChunkIndex idx : {0u, 1u, 2u, 3u, 4u, 6u, 7u, 8u, 9u}) {
    cache_.put(chunk(idx), Bytes(8, 1));
  }
  const ReadPlan p = plan([&](const ObjectKey&, ChunkIndex idx) {
    return ((masks[id_] >> idx) & 1U) != 0;
  });
  EXPECT_EQ(p.from_cache.size(), 9u);
  EXPECT_TRUE(p.from_backend.empty());
}

}  // namespace
}  // namespace agar::core
