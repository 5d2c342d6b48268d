// Write-capable client: data-path latency, durability, coherence
// integration, read-your-writes through an Agar cache.
#include <gtest/gtest.h>

#include <memory>

#include "client/agar_strategy.hpp"
#include "client/writer.hpp"

namespace agar::client {
namespace {

class WriterTest : public ::testing::Test {
 protected:
  WriterTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, zero_jitter(), 9)),
        backend_(6, ec::CodecParams{9, 3},
                 std::make_shared<ec::RoundRobinPlacement>(false)),
        coherence_(6, &network_, &backend_.objects()) {
    store::populate_working_set(backend_, 3, 9000);
  }

  static sim::LatencyModelParams zero_jitter() {
    sim::LatencyModelParams p;
    p.jitter_fraction = 0.0;
    p.wan_bandwidth_mbps = std::numeric_limits<double>::infinity();
    p.cache_bandwidth_mbps = std::numeric_limits<double>::infinity();
    return p;
  }

  WriterContext wctx(RegionId region) {
    WriterContext c;
    c.backend = &backend_;
    c.network = &network_;
    c.region = region;
    c.encode_ms_per_mb = 0.0;
    return c;
  }

  sim::Topology topology_;
  sim::Network network_;
  store::BackendCluster backend_;
  paxos::CoherenceCoordinator coherence_;
};

TEST_F(WriterTest, NullDependenciesThrow) {
  WriterContext c;
  EXPECT_THROW(WriterClient(c, nullptr), std::invalid_argument);
}

TEST_F(WriterTest, WriteWithoutCoherenceStoresDurably) {
  WriterClient writer(wctx(sim::region::kFrankfurt), nullptr);
  const Bytes payload = deterministic_payload("new-value", 4500);
  const WriteResult r = writer.write("object0", BytesView(payload));
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.consensus_ms, 0.0);
  // Data path = slowest of all 12 uploads; from Frankfurt that is a Sydney
  // chunk at 1530 ms (writers must place the FULL stripe, parity included).
  EXPECT_DOUBLE_EQ(r.latency_ms, 1530.0);
  // Durability: the new value decodes back.
  std::vector<ec::Chunk> chunks;
  for (ChunkIndex i = 0; i < 9; ++i) {
    const auto v = backend_.get_chunk({"object0", i});
    ASSERT_TRUE(v.has_value());
    chunks.push_back(ec::Chunk{i, Bytes(v->begin(), v->end())});
  }
  EXPECT_EQ(backend_.codec().decode(4500, chunks), payload);
}

TEST_F(WriterTest, WriteWithCoherenceAddsConsensusLatency) {
  WriterClient writer(wctx(sim::region::kFrankfurt), &coherence_);
  const Bytes payload = deterministic_payload("v2", 900);
  const WriteResult r = writer.write("object1", BytesView(payload));
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.consensus_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.latency_ms, 1530.0 + r.consensus_ms);
  EXPECT_EQ(r.version, 1u);
}

TEST_F(WriterTest, VersionsGrowAcrossWrites) {
  WriterClient writer(wctx(0), &coherence_);
  const Bytes payload = deterministic_payload("x", 90);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const WriteResult r = writer.write("object2", BytesView(payload));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.version, i);
  }
  EXPECT_EQ(writer.writes_issued(), 3u);
}

TEST_F(WriterTest, WriteFailsWhenARegionIsDown) {
  network_.fail_region(sim::region::kTokyo);
  WriterClient writer(wctx(0), nullptr);
  const Bytes payload = deterministic_payload("y", 900);
  EXPECT_FALSE(writer.write("object0", BytesView(payload)).ok);
}

TEST_F(WriterTest, ReadYourWritesThroughAgarCache) {
  // Populate an Agar cache with object0, write a new value with coherence
  // attached, and check the stale cache entries vanish so the next read
  // refetches from the backend.
  sim::EventLoop loop;
  network_.bind_loop(&loop);
  ClientContext rctx;
  rctx.backend = &backend_;
  rctx.network = &network_;
  rctx.region = sim::region::kFrankfurt;
  core::AgarNodeParams node_params;
  node_params.region = sim::region::kFrankfurt;
  node_params.cache_capacity_bytes = 1_MB;
  node_params.reconfig_period_ms = 30'000.0;
  node_params.cache_manager.candidate_weights = {1, 3, 5, 7, 9};
  AgarStrategy reader(rctx, node_params);
  reader.warm_up();
  reader.attach_to_loop(loop);

  for (int i = 0; i < 30; ++i) (void)reader.read("object0");
  // Past the second period boundary: the pipeline has reconfigured for
  // object0 and its population downloads have landed.
  loop.run_until(70'000.0);
  ASSERT_TRUE(reader.read("object0").full_hit);  // served from cache

  coherence_.attach_cache(sim::region::kFrankfurt, &reader.node().cache(),
                          12);
  WriterClient writer(wctx(sim::region::kFrankfurt), &coherence_);
  const Bytes fresh = deterministic_payload("fresh-bytes", 9000);
  ASSERT_TRUE(writer.write("object0", BytesView(fresh)).ok);

  // Stale chunks were invalidated: the next read cannot be a full hit; it
  // refetches from the backend (and, as a side effect, repopulates the
  // still-configured chunks with fresh data).
  const ReadResult after = reader.read("object0");
  EXPECT_FALSE(after.full_hit);
  EXPECT_EQ(after.cache_chunks, 0u);
  // The repopulation wrote fresh bytes; the following read hits again.
  const ReadResult again = reader.read("object0");
  EXPECT_TRUE(again.partial_hit || again.full_hit);
}

}  // namespace
}  // namespace agar::client
