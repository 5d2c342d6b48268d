// AgarNode facade: read planning, population protocol, periodic
// reconfiguration on the event loop.
#include "core/agar_node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace agar::core {
namespace {

class AgarNodeTest : public ::testing::Test {
 protected:
  AgarNodeTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, {}, 7)),
        backend_(6, ec::CodecParams{9, 3},
                 std::make_shared<ec::RoundRobinPlacement>(false)) {
    for (int i = 0; i < 10; ++i) {
      backend_.register_object("object" + std::to_string(i), 1_MB);
    }
    network_.bind_loop(&loop_);
  }

  AgarNodeParams params(std::size_t cache_bytes = 10_MB) {
    AgarNodeParams p;
    p.region = sim::region::kFrankfurt;
    p.cache_capacity_bytes = cache_bytes;
    p.cache_manager.candidate_weights = {1, 3, 5, 7, 9};
    return p;
  }

  /// Run the loop to the middle of the next reconfiguration period. The
  /// timer at the period boundary fires a probe round, and the
  /// configuration is applied once those probes land, well before then.
  void run_next_period(AgarNode& node) {
    const std::size_t before = node.cache_manager().reconfigurations();
    const SimTimeMs period = node.params().reconfig_period_ms;
    loop_.run_until((std::floor(loop_.now() / period) + 1.5) * period);
    EXPECT_EQ(node.cache_manager().reconfigurations(), before + 1);
  }

  ObjectId id(const ObjectKey& key) const {
    return backend_.objects().id_of(key);
  }

  sim::EventLoop loop_;
  sim::Topology topology_;
  sim::Network network_;
  store::BackendCluster backend_;
};

TEST_F(AgarNodeTest, PlanCoversExactlyKChunks) {
  AgarNode node(&backend_, &network_, params());
  node.warm_up();
  const ReadPlan plan = node.plan_read(id("object0"));
  EXPECT_EQ(plan.chunks_on_path(), 9u);
  EXPECT_TRUE(plan.from_cache.empty());  // nothing configured yet
  EXPECT_DOUBLE_EQ(plan.monitor_overhead_ms, 0.5);
}

TEST_F(AgarNodeTest, PlanPrefersCheapRegions) {
  AgarNode node(&backend_, &network_, params());
  node.warm_up();
  const ReadPlan plan = node.plan_read(id("object0"));
  // The m = 3 most distant chunks (2x Sydney + 1x Tokyo from Frankfurt)
  // must not be on the plan.
  std::size_t sydney = 0, tokyo = 0;
  for (const auto& [idx, region] : plan.from_backend) {
    if (region == sim::region::kSydney) ++sydney;
    if (region == sim::region::kTokyo) ++tokyo;
  }
  EXPECT_EQ(sydney, 0u);
  EXPECT_LE(tokyo, 1u);
}

TEST_F(AgarNodeTest, PlanRecordsAccessInMonitor) {
  AgarNode node(&backend_, &network_, params());
  node.warm_up();
  (void)node.plan_read(id("object3"));
  (void)node.plan_read(id("object3"));
  EXPECT_EQ(node.request_monitor().accesses(), 2u);
  EXPECT_GT(node.request_monitor().popularity(id("object3")), 0.0);
}

TEST_F(AgarNodeTest, ConfiguredChunksMarkedForPopulation) {
  AgarNode node(&backend_, &network_, params());
  node.warm_up();
  node.attach_to_loop(loop_);
  for (int i = 0; i < 50; ++i) (void)node.plan_read(id("object0"));
  run_next_period(node);
  ASSERT_TRUE(node.cache_manager().current().entries.contains("object0"));

  const ReadPlan plan = node.plan_read(id("object0"));
  // Cache not yet populated: configured chunks appear either in
  // populate_after_read (if fetched on-path) or async_populate.
  const std::size_t configured =
      node.cache_manager().current().entries.at("object0").chunks.size();
  EXPECT_EQ(plan.populate_after_read.size() + plan.async_populate.size(),
            configured);
  EXPECT_TRUE(plan.from_cache.empty());
}

TEST_F(AgarNodeTest, ResidentChunksComeFromCache) {
  AgarNode node(&backend_, &network_, params());
  node.warm_up();
  node.attach_to_loop(loop_);
  for (int i = 0; i < 50; ++i) (void)node.plan_read(id("object0"));
  run_next_period(node);
  const auto& opt = node.cache_manager().current().entries.at("object0");

  // Simulate the client population step.
  const std::size_t chunk_size = backend_.object_info("object0").chunk_size;
  for (const ChunkIndex idx : opt.chunks) {
    EXPECT_TRUE(node.cache().put(ChunkId{"object0", idx}.cache_key(),
                                 Bytes(chunk_size, 0)));
  }

  const ReadPlan plan = node.plan_read(id("object0"));
  EXPECT_EQ(plan.from_cache.size(), opt.chunks.size());
  EXPECT_EQ(plan.chunks_on_path(), 9u);
  EXPECT_TRUE(plan.async_populate.empty());
  // Cached chunks and backend chunks must not overlap.
  for (const ChunkIndex c : plan.from_cache) {
    for (const auto& [idx, region] : plan.from_backend) {
      EXPECT_NE(c, idx);
    }
  }
}

TEST_F(AgarNodeTest, AttachToLoopReconfiguresPeriodically) {
  AgarNodeParams p = params();
  p.reconfig_period_ms = 1000.0;
  AgarNode node(&backend_, &network_, p);
  node.warm_up();
  node.attach_to_loop(loop_);
  for (int i = 0; i < 20; ++i) (void)node.plan_read(id("object0"));
  // Each reconfiguration waits for its asynchronous probe round to land,
  // so the pipeline trails the 1 s timer.
  loop_.run_until(5500.0);
  EXPECT_EQ(node.cache_manager().reconfigurations(), 3u);
}

TEST_F(AgarNodeTest, AttachToLoopRequiresNetworkOnLoop) {
  AgarNode node(&backend_, &network_, params());
  sim::EventLoop loop;
  EXPECT_THROW(node.attach_to_loop(loop), std::logic_error);
}

TEST_F(AgarNodeTest, FullHitPlanHasNoBackendFetches) {
  AgarNode node(&backend_, &network_, params(100_MB));
  node.warm_up();
  node.attach_to_loop(loop_);
  for (int i = 0; i < 100; ++i) (void)node.plan_read(id("object0"));
  run_next_period(node);
  const auto& entries = node.cache_manager().current().entries;
  ASSERT_TRUE(entries.contains("object0"));
  const auto& opt = entries.at("object0");
  // With a huge cache and one hot object the solver takes the full replica.
  ASSERT_EQ(opt.weight, 9u);
  const std::size_t chunk_size = backend_.object_info("object0").chunk_size;
  for (const ChunkIndex idx : opt.chunks) {
    node.cache().put(ChunkId{"object0", idx}.cache_key(),
                     Bytes(chunk_size, 0));
  }
  const ReadPlan plan = node.plan_read(id("object0"));
  EXPECT_EQ(plan.from_cache.size(), 9u);
  EXPECT_TRUE(plan.from_backend.empty());
}

TEST_F(AgarNodeTest, ReconfigurationEvictsStaleResidents) {
  AgarNode node(&backend_, &network_, params(5_MB));
  node.warm_up();
  node.attach_to_loop(loop_);
  for (int i = 0; i < 50; ++i) (void)node.plan_read(id("object0"));
  run_next_period(node);
  const auto opt0 = node.cache_manager().current().entries.at("object0");
  const std::size_t chunk_size = backend_.object_info("object0").chunk_size;
  for (const ChunkIndex idx : opt0.chunks) {
    node.cache().put(ChunkId{"object0", idx}.cache_key(),
                     Bytes(chunk_size, 0));
  }
  // Shift the workload for enough periods that object0 decays away.
  for (int period = 0; period < 8; ++period) {
    for (int i = 0; i < 100; ++i) (void)node.plan_read(id("object7"));
    run_next_period(node);
  }
  EXPECT_FALSE(node.cache_manager().current().entries.contains("object0"));
  // Its chunks must be gone from the cache.
  for (const ChunkIndex idx : opt0.chunks) {
    EXPECT_FALSE(node.cache().contains(ChunkId{"object0", idx}.cache_key()));
  }
}

}  // namespace
}  // namespace agar::core
