// Verify-mode reads check the decoded data chunks byte for byte against the
// object's write-time chunks (BackendCluster::written). These tests pin that
// contract: corrupted bytes are caught even when they arrive in a distinct
// buffer, the reference survives bucket erasure and repair, and it follows
// the latest write.
#include <gtest/gtest.h>

#include <memory>

#include "api/registry.hpp"
#include "client/backend_strategy.hpp"
#include "client/fixed_chunks_strategy.hpp"
#include "client/writer.hpp"
#include "store/repair.hpp"

namespace agar::client {
namespace {

constexpr std::size_t kK = 9;
const ObjectKey kKey = "object0";

class VerifyReferenceTest : public ::testing::Test {
 protected:
  VerifyReferenceTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, zero_jitter(), 3)),
        backend_(6, ec::CodecParams{9, 3},
                 std::make_shared<ec::RoundRobinPlacement>(false)) {
    store::populate_working_set(backend_, 3, 9000);
    network_.bind_loop(&loop_);
  }

  static sim::LatencyModelParams zero_jitter() {
    sim::LatencyModelParams p;
    p.jitter_fraction = 0.0;
    p.wan_bandwidth_mbps = std::numeric_limits<double>::infinity();
    p.cache_bandwidth_mbps = std::numeric_limits<double>::infinity();
    return p;
  }

  ClientContext ctx(RegionId region) {
    ClientContext c;
    c.backend = &backend_;
    c.network = &network_;
    c.loop = &loop_;
    c.region = region;
    c.decode_ms_per_mb = 0.0;
    c.verify_data = true;
    return c;
  }

  /// LRU strategy caching all k chunks it reads: the second read of an
  /// object is a full hit served from cache entries the test can replace.
  std::unique_ptr<FixedChunksStrategy> make_lru(RegionId region) {
    FixedChunksParams p;
    p.engine = "lru";
    p.chunks_per_object = kK;
    p.cache_capacity_bytes = 100_MB;
    auto engine = api::EngineRegistry::instance().create(
        p.engine, api::EngineContext{p.cache_capacity_bytes}, api::ParamMap{});
    return std::make_unique<FixedChunksStrategy>(ctx(region), p,
                                                 std::move(engine));
  }

  /// Chunk indices of kKey resident in `cache`, ascending.
  std::vector<ChunkIndex> cached_chunks(cache::CacheEngine& cache) const {
    std::vector<ChunkIndex> out;
    for (ChunkIndex i = 0; i < 12; ++i) {
      if (cache.contains(backend_.objects().chunk(ChunkId{kKey, i}))) {
        out.push_back(i);
      }
    }
    return out;
  }

  /// A distinct allocation holding `chunk` with one byte flipped.
  static SharedBytes flipped_copy(const SharedBytes& chunk) {
    Bytes bytes(chunk.begin(), chunk.end());
    bytes[bytes.size() / 2] ^= 0x01;
    return SharedBytes(std::move(bytes));
  }

  RegionId home_of(ChunkIndex index) const {
    return backend_.placement().region_of(kKey, index, backend_.num_regions());
  }

  /// A data chunk a Frankfurt backend read does not fetch (one of the m
  /// most distant chunks), so that read rebuilds it from parity.
  ChunkIndex unfetched_data_chunk() {
    const auto order = chunks_by_expected_latency(ctx(0), kKey);
    for (std::size_t i = kK; i < order.size(); ++i) {
      if (order[i].first < kK) return order[i].first;
    }
    ADD_FAILURE() << "every skipped chunk is parity";
    return 0;
  }

  sim::Topology topology_;
  sim::EventLoop loop_;
  sim::Network network_;
  store::BackendCluster backend_;
};

TEST_F(VerifyReferenceTest, FlippedByteInCachedDataChunkIsDetected) {
  auto strategy = make_lru(sim::region::kFrankfurt);
  ASSERT_TRUE(strategy->read(kKey).verified);
  const std::vector<ChunkIndex> cached = cached_chunks(strategy->engine());
  ASSERT_EQ(cached.size(), kK);
  ASSERT_LT(cached.front(), kK);
  const ChunkIndex d = cached.front();
  const ChunkRef ck = backend_.objects().chunk(ChunkId{kKey, d});
  const SharedBytes original = *backend_.get_chunk(ChunkId{kKey, d});

  // A distinct buffer with equal bytes takes the memcmp path and passes.
  ASSERT_TRUE(strategy->engine().put(ck, SharedBytes::copy_of(original)));
  const ReadResult same = strategy->read(kKey);
  EXPECT_TRUE(same.full_hit);
  EXPECT_TRUE(same.verified);

  ASSERT_TRUE(strategy->engine().put(ck, flipped_copy(original)));
  const ReadResult corrupt = strategy->read(kKey);
  EXPECT_TRUE(corrupt.full_hit);
  EXPECT_FALSE(corrupt.failed);
  EXPECT_FALSE(corrupt.verified);
}

TEST_F(VerifyReferenceTest, FlippedByteInRebuildingParityIsDetected) {
  auto strategy = make_lru(sim::region::kFrankfurt);
  ASSERT_TRUE(strategy->read(kKey).verified);
  const std::vector<ChunkIndex> cached = cached_chunks(strategy->engine());
  ASSERT_EQ(cached.size(), kK);
  // The full hit decodes from these k chunks: a parity chunk among them
  // rebuilds the data rows that are not.
  ASSERT_GE(cached.back(), kK);
  const ChunkIndex p = cached.back();
  const SharedBytes original = *backend_.get_chunk(ChunkId{kKey, p});
  ASSERT_TRUE(strategy->engine().put(backend_.objects().chunk(ChunkId{kKey, p}),
                                     flipped_copy(original)));
  const ReadResult corrupt = strategy->read(kKey);
  EXPECT_TRUE(corrupt.full_hit);
  EXPECT_FALSE(corrupt.verified);
}

TEST_F(VerifyReferenceTest, ErasedDataChunkStillVerifiesViaParity) {
  const ChunkIndex d = unfetched_data_chunk();
  ASSERT_TRUE(backend_.bucket(home_of(d)).erase(backend_.objects().chunk(ChunkId{kKey, d})));
  ASSERT_FALSE(backend_.get_chunk(ChunkId{kKey, d}).has_value());

  // The write-time reference outlives the bucket entry.
  ASSERT_EQ(backend_.written(kKey).data.size(), kK);
  EXPECT_FALSE(backend_.written(kKey).data[d].empty());

  BackendStrategy s(ctx(sim::region::kFrankfurt));
  const ReadResult r = s.read(kKey);
  EXPECT_FALSE(r.failed);
  EXPECT_TRUE(r.verified);
}

TEST_F(VerifyReferenceTest, RepairedChunkVerifiesThroughCompare) {
  const ChunkIndex d = unfetched_data_chunk();
  ASSERT_TRUE(backend_.bucket(home_of(d)).erase(backend_.objects().chunk(ChunkId{kKey, d})));
  const store::RepairReport report = store::repair_all(backend_);
  EXPECT_EQ(report.chunks_rebuilt, 1u);

  // Repair stored a new allocation, so a read fetching it compares bytes
  // instead of matching the reference's address.
  const auto repaired = backend_.get_chunk(ChunkId{kKey, d});
  ASSERT_TRUE(repaired.has_value());
  EXPECT_NE(repaired->data(), backend_.written(kKey).data[d].data());

  BackendStrategy local(ctx(home_of(d)));  // its own region's chunks first
  const ReadResult r = local.read(kKey);
  EXPECT_TRUE(r.verified);
  BackendStrategy remote(ctx(sim::region::kFrankfurt));
  EXPECT_TRUE(remote.read(kKey).verified);
}

TEST_F(VerifyReferenceTest, CorruptBucketChunkIsDetected) {
  // Bit rot in the backend itself: the bucket's bytes no longer match what
  // was written, and a read fetching them must not verify.
  const ChunkIndex d = 0;
  const SharedBytes original = *backend_.get_chunk(ChunkId{kKey, d});
  backend_.bucket(home_of(d))
      .put(backend_.objects().chunk(ChunkId{kKey, d}), flipped_copy(original));
  BackendStrategy local(ctx(home_of(d)));
  EXPECT_FALSE(local.read(kKey).verified);
}

TEST_F(VerifyReferenceTest, ReadYourWritesAndStaleCacheWithoutCoherence) {
  auto cached = make_lru(sim::region::kFrankfurt);
  ASSERT_TRUE(cached->read(kKey).verified);  // caches the old value

  WriterContext w;
  w.backend = &backend_;
  w.network = &network_;
  w.region = sim::region::kFrankfurt;
  w.encode_ms_per_mb = 0.0;
  WriterClient writer(w, /*coherence=*/nullptr);
  const Bytes fresh = deterministic_payload("fresh-value", 9000);
  ASSERT_TRUE(writer.write(kKey, BytesView(fresh)).ok);

  // A read assembling the new chunks verifies against the new write.
  BackendStrategy uncached(ctx(sim::region::kFrankfurt));
  EXPECT_TRUE(uncached.read(kKey).verified);

  // Without coherence the cache still serves the old chunks: the read
  // completes, but its bytes are not the current value.
  const ReadResult stale = cached->read(kKey);
  EXPECT_TRUE(stale.full_hit);
  EXPECT_FALSE(stale.verified);
}

}  // namespace
}  // namespace agar::client
