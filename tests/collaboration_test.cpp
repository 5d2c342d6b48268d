// Cache collaboration extension (§VI): the broadcast snapshot,
// configuration overlap and peer-aware chunk costs the cooperative tier
// is built on.
#include "collab/collab.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "client/agar_strategy.hpp"

namespace agar {
namespace {

/// Agar caches in any region over one six-region metadata-only backend:
/// the broadcast and planning pieces below the CollabRuntime.
class CollaborationTest : public ::testing::Test {
 protected:
  CollaborationTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, {}, 31)),
        backend_(6, ec::CodecParams{9, 3},
                 std::make_shared<ec::RoundRobinPlacement>(false)) {
    for (int i = 0; i < 6; ++i) {
      backend_.register_object("object" + std::to_string(i), 1_MB);
    }
    network_.bind_loop(&loop_);
  }

  std::unique_ptr<client::AgarStrategy> make_cache(RegionId region) {
    client::ClientContext ctx;
    ctx.backend = &backend_;
    ctx.network = &network_;
    ctx.region = region;
    core::AgarNodeParams p;
    p.region = region;
    p.cache_capacity_bytes = 10_MB;
    p.cache_manager.candidate_weights = {1, 3, 5, 7, 9};
    auto cache = std::make_unique<client::AgarStrategy>(ctx, p);
    cache->warm_up();
    return cache;
  }

  /// Make object0 hot in each cache and run the loop into the middle of
  /// the first 30 s period, by which the probe round fired at the period
  /// boundary has landed and each cache has installed a configuration.
  void configure_hot_object(
      std::initializer_list<client::AgarStrategy*> caches) {
    for (auto* cache : caches) {
      for (int i = 0; i < 50; ++i) (void)cache->node().plan_read(object0());
      cache->node().attach_to_loop(loop_);
    }
    loop_.run_until(45'000.0);
    for (auto* cache : caches) {
      EXPECT_EQ(cache->node().cache_manager().reconfigurations(), 1u);
    }
  }

  ObjectId object0() const { return backend_.objects().id_of("object0"); }

  /// A broadcast configuring exactly chunk `index` of object0.
  collab::PeerInfo peer(RegionId region, ChunkIndex index) const {
    collab::PeerInfo info;
    info.region = region;
    info.configured.assign(object0() + 1, 0);
    info.configured[object0()] = ChunkMask{1} << index;
    return info;
  }

  sim::EventLoop loop_;
  sim::Topology topology_;
  sim::Network network_;
  store::BackendCluster backend_;
};

TEST_F(CollaborationTest, BroadcastContainsConfiguredChunks) {
  auto cache = make_cache(sim::region::kFrankfurt);
  configure_hot_object({cache.get()});
  const collab::PeerInfo info = cache->collab_info();
  EXPECT_EQ(info.region, sim::region::kFrankfurt);
  std::size_t expected = 0;
  for (const auto& [key, opt] :
       cache->node().cache_manager().current().entries) {
    expected += opt.chunks.size();
  }
  EXPECT_EQ(info.configured_chunks(), expected);
  EXPECT_FALSE(info.popularity.empty());
}

TEST_F(CollaborationTest, OverlapBetweenSimilarWorkloads) {
  // Same hot object in both regions -> overlapping configurations.
  auto fra = make_cache(sim::region::kFrankfurt);
  auto dub = make_cache(sim::region::kDublin);
  configure_hot_object({fra.get(), dub.get()});
  const collab::OverlapReport report =
      collab::overlap_of(fra->collab_info(), dub->collab_info());
  EXPECT_GT(report.chunks_a, 0u);
  EXPECT_GT(report.chunks_b, 0u);
  EXPECT_GT(report.shared, 0u);
  EXPECT_GT(report.shared_fraction(), 0.0);
  EXPECT_LE(report.shared_fraction(), 1.0);
}

TEST_F(CollaborationTest, PeerAwareCostsDiscountNearbyPeerChunks) {
  // Dublin caches chunk "object0#4"; a Frankfurt planner should see that
  // chunk cheaper than its Tokyo home region.
  const collab::PeerInfo dublin = peer(sim::region::kDublin, 4);

  std::vector<core::ChunkCost> costs;
  for (ChunkIndex i = 0; i < 12; ++i) {
    const RegionId region = i % 6;
    costs.push_back(core::ChunkCost{
        i, region,
        topology_.base_latency_ms(sim::region::kFrankfurt, region)});
  }
  const auto adjusted =
      collab::peer_aware_costs(costs, object0(), {dublin}, topology_,
                               sim::region::kFrankfurt, 0.75, 400.0);
  // Chunk 4 (Tokyo, 1130 ms base) now costs the Dublin peer fetch:
  // 100 ms * 0.75 = 75 ms.
  EXPECT_DOUBLE_EQ(adjusted[4].latency_ms, 75.0);
  // Other chunks unchanged.
  EXPECT_DOUBLE_EQ(adjusted[5].latency_ms, costs[5].latency_ms);
}

TEST_F(CollaborationTest, PeerAwareCostsIgnoreDistantPeers) {
  const collab::PeerInfo sydney = peer(sim::region::kSydney, 4);

  std::vector<core::ChunkCost> costs{{4, sim::region::kTokyo, 1100.0}};
  // Sydney is 1200 ms from Frankfurt > max_peer_ms 400: no discount.
  const auto adjusted = collab::peer_aware_costs(
      costs, object0(), {sydney}, topology_, sim::region::kFrankfurt);
  EXPECT_DOUBLE_EQ(adjusted[0].latency_ms, 1100.0);
}

TEST_F(CollaborationTest, PeerAwareCostsNeverIncrease) {
  const collab::PeerInfo dublin = peer(sim::region::kDublin, 0);
  // Local chunk already cheaper than the peer fetch (100 ms * 0.75 = 75):
  // keep the original.
  std::vector<core::ChunkCost> costs{{0, sim::region::kFrankfurt, 70.0}};
  const auto adjusted = collab::peer_aware_costs(
      costs, object0(), {dublin}, topology_, sim::region::kFrankfurt);
  EXPECT_DOUBLE_EQ(adjusted[0].latency_ms, 70.0);
}

}  // namespace
}  // namespace agar
