// Interning: dense, stable object ids; the key-string edge resolves to
// them; the hashes id-keyed policies use equal the string hashes exactly.
#include "store/object_table.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "cache/tinylfu_cache.hpp"
#include "client/writer.hpp"
#include "common/bytes.hpp"
#include "core/request_monitor.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"
#include "stats/count_min.hpp"
#include "store/backend.hpp"

namespace agar {
namespace {

store::BackendCluster make_backend() {
  return store::BackendCluster(
      6, ec::CodecParams{9, 3},
      std::make_shared<ec::RoundRobinPlacement>(true));
}

TEST(ObjectTable, IdsAreDenseInRegistrationOrder) {
  store::ObjectTable t;
  EXPECT_EQ(t.intern("zebra"), 0u);
  EXPECT_EQ(t.intern("apple"), 1u);
  EXPECT_EQ(t.intern("zebra"), 0u);  // re-interning keeps the id
  EXPECT_EQ(t.intern("mango"), 2u);
  EXPECT_EQ(t.size(), 3u);
}

TEST(ObjectTable, KeyOfIdOfRoundTrips) {
  store::ObjectTable t;
  for (int i = 0; i < 50; ++i) t.intern("object" + std::to_string(i));
  for (int i = 0; i < 50; ++i) {
    const std::string key = "object" + std::to_string(i);
    EXPECT_EQ(t.key_of(t.id_of(key)), key);
  }
  EXPECT_THROW((void)t.id_of("object50"), std::out_of_range);
  EXPECT_FALSE(t.find("object50").has_value());
}

TEST(ObjectTable, KeyOrderIsTheStringOrder) {
  store::ObjectTable t;
  const ObjectId b = t.intern("object10");
  const ObjectId a = t.intern("object9");
  // Registration order says b < a; key order says "object10" < "object9".
  EXPECT_TRUE(t.key_less(b, a));
  EXPECT_FALSE(t.key_less(a, b));
}

TEST(ObjectTable, FindChunkParsesCanonicalCacheKeys) {
  store::ObjectTable t;
  const ObjectId id = t.intern("user#7");  // '#' inside a key is fine
  const auto ref = t.find_chunk("user#7#11");
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->object, id);
  EXPECT_EQ(ref->index, 11u);
  EXPECT_FALSE(t.find_chunk("user#7#011").has_value());
  EXPECT_FALSE(t.find_chunk("user#7#").has_value());
  EXPECT_FALSE(t.find_chunk("nobody#1").has_value());
  EXPECT_FALSE(t.find_chunk("no-index").has_value());
}

TEST(ObjectTable, ChunkAndKeyHashesEqualTheStringHashes) {
  // FNV-1a streams, so a chunk's cache-key hash continues from its key's.
  store::ObjectTable t;
  for (const std::string key : {"object0", "object299", "user4953", "", "a#b"}) {
    const ObjectId id = t.intern(key);
    EXPECT_EQ(t.key_hash(id), fnv1a(key));
    for (ChunkIndex i : {0u, 1u, 9u, 10u, 11u, 63u, 4294967295u}) {
      EXPECT_EQ(t.chunk(id, i).hash, fnv1a(ChunkId{key, i}.cache_key()))
          << key << "#" << i;
    }
  }
}

TEST(ObjectTable, TinyLfuSketchSeesTheCacheKeyHash) {
  // What TinyLFU counts for a ChunkRef is what it counted for the string.
  auto backend = make_backend();
  cache::TinyLfuCache cache(1_MB);
  for (const std::string key : {"object3", "object42", "x"}) {
    const ObjectId id = backend.register_object(key, 9000);
    for (ChunkIndex i = 0; i < 12; ++i) {
      (void)cache.get(backend.chunk(id, i));
      EXPECT_GE(cache.sketch().estimate(ChunkId{key, i}.cache_key()), 1u)
          << key << "#" << i;
    }
  }
}

TEST(ObjectTable, CountMinMonitorHashesTheKey) {
  // The count-min estimator's sketch is fed fnv1a(key): a key recorded
  // through its id ranks exactly where the string-keyed sketch put it.
  auto backend = make_backend();
  std::vector<ObjectId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(backend.register_object("object" + std::to_string(i), 9000));
  }
  core::RequestMonitorParams p;
  p.estimator = "count-min";
  p.estimator_params.set("width", "64");
  p.estimator_params.set("depth", "4");
  core::RequestMonitor monitor(p, &backend.objects());
  stats::CountMinSketch reference(64, 4);
  for (int i = 0; i < 40; ++i) {
    for (int n = 0; n <= i % 7; ++n) {
      monitor.record_access(ids[static_cast<std::size_t>(i)]);
      reference.add("object" + std::to_string(i));
    }
  }
  for (int i = 0; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(
        monitor.popularity(ids[static_cast<std::size_t>(i)]),
        0.8 * static_cast<double>(
                  reference.estimate("object" + std::to_string(i))));
  }
}

TEST(BackendInterning, RewritesKeepIdsAndNewKeysAppend) {
  auto backend = make_backend();
  const Bytes v1(5000, 1), v2(7000, 2);
  const ObjectId a = backend.put_object("a", BytesView(v1));
  const ObjectId b = backend.register_object("b", 100);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(backend.put_object("a", BytesView(v2)), a);
  EXPECT_EQ(backend.register_object("b", 200), b);
  EXPECT_EQ(backend.object_size(a), 7000u);
  EXPECT_EQ(backend.object_size(b), 200u);
  EXPECT_EQ(backend.put_object("c", BytesView(v1)), 2u);
  EXPECT_EQ(backend.num_objects(), 3u);
  EXPECT_EQ(backend.keys(), (std::vector<ObjectKey>{"a", "b", "c"}));
}

TEST(BackendInterning, WriterRewriteKeepsTheId) {
  const sim::Topology topology = sim::aws_six_regions();
  sim::Network network(sim::LatencyModel(&topology, {}, 3));
  auto backend = make_backend();
  const ObjectId id = backend.register_object("object0", 9000);
  client::WriterContext ctx;
  ctx.backend = &backend;
  ctx.network = &network;
  client::WriterClient writer(ctx, nullptr);
  const Bytes value(12000, 9);
  ASSERT_TRUE(writer.write("object0", BytesView(value)).ok);
  EXPECT_EQ(backend.objects().id_of("object0"), id);
  EXPECT_EQ(backend.object_size(id), 12000u);
  ASSERT_TRUE(writer.write("object1", BytesView(value)).ok);
  EXPECT_EQ(backend.objects().id_of("object1"), id + 1);
}

TEST(BackendInterning, UnknownKeysThrowAtTheStringEdge) {
  auto backend = make_backend();
  backend.register_object("known", 9000);
  EXPECT_THROW((void)backend.object_info("unknown"), std::out_of_range);
  EXPECT_THROW((void)backend.written("unknown"), std::out_of_range);
  EXPECT_FALSE(backend.get_chunk(ChunkId{"unknown", 0}).has_value());
  EXPECT_FALSE(backend.has_object("unknown"));
}

TEST(BackendInterning, IdLayoutMatchesThePlacementPolicy) {
  // The per-object offset stored at registration reproduces the
  // placement's key-string answer for every chunk.
  auto backend = make_backend();
  for (int i = 0; i < 30; ++i) {
    const std::string key = "object" + std::to_string(i);
    const ObjectId id = backend.register_object(key, 9000);
    for (ChunkIndex c = 0; c < 12; ++c) {
      EXPECT_EQ(backend.region_of(id, c),
                backend.placement().region_of(key, c, 6));
    }
  }
}

}  // namespace
}  // namespace agar
