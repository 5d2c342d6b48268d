// Agar's static-configuration cache: admission gating and reconfiguration.
#include "cache/static_cache.hpp"

#include <gtest/gtest.h>

#include "chunk_keys.hpp"

namespace agar::cache {
namespace {

using test_keys::ck;

Bytes val(std::size_t n) { return Bytes(n, 0x77); }

/// The configuration holding exactly the named chunks.
std::vector<ChunkMask> config(const std::vector<std::string>& names) {
  std::vector<ChunkMask> masks;
  for (const auto& name : names) {
    const ChunkRef ref = ck(name);
    if (masks.size() <= ref.object) masks.resize(ref.object + 1, 0);
    masks[ref.object] |= ChunkMask{1} << ref.index;
  }
  return masks;
}

TEST(StaticCache, RejectsUnconfiguredKeys) {
  StaticConfigCache c(100);
  EXPECT_FALSE(c.put(ck("a"), val(10)));
  EXPECT_EQ(c.stats().rejections, 1u);
  c.install_configuration(config({"a"}));
  EXPECT_TRUE(c.put(ck("a"), val(10)));
}

TEST(StaticCache, GetServesOnlyPopulatedEntries) {
  StaticConfigCache c(100);
  c.install_configuration(config({"a", "b"}));
  c.put(ck("a"), val(10));
  EXPECT_TRUE(c.get(ck("a")).has_value());
  // "b" is configured but nobody populated it yet.
  EXPECT_FALSE(c.get(ck("b")).has_value());
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(StaticCache, ReconfigurationEvictsDroppedKeys) {
  StaticConfigCache c(100);
  c.install_configuration(config({"a", "b"}));
  c.put(ck("a"), val(10));
  c.put(ck("b"), val(10));
  c.install_configuration(config({"b", "c"}));
  EXPECT_FALSE(c.contains(ck("a")));
  EXPECT_TRUE(c.contains(ck("b")));
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.used_bytes(), 10u);
}

TEST(StaticCache, ReconfigurationKeepsSurvivors) {
  StaticConfigCache c(100);
  c.install_configuration(config({"x"}));
  c.put(ck("x"), val(42));
  c.install_configuration(config({"x", "y"}));
  const auto v = c.get(ck("x"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->size(), 42u);
}

TEST(StaticCache, IsConfiguredReflectsCurrentSet) {
  StaticConfigCache c(100);
  c.install_configuration(config({"a"}));
  EXPECT_TRUE(c.is_configured(ck("a")));
  EXPECT_FALSE(c.is_configured(ck("b")));
  EXPECT_EQ(c.configured_size(), 1u);
}

TEST(StaticCache, CapacityIsRespected) {
  StaticConfigCache c(25);
  c.install_configuration(config({"a", "b", "c"}));
  EXPECT_TRUE(c.put(ck("a"), val(10)));
  EXPECT_TRUE(c.put(ck("b"), val(10)));
  // Would exceed capacity; declined rather than evicting a sibling.
  EXPECT_FALSE(c.put(ck("c"), val(10)));
  EXPECT_EQ(c.used_bytes(), 20u);
}

TEST(StaticCache, OversizedValueRejected) {
  StaticConfigCache c(10);
  c.install_configuration(config({"a"}));
  EXPECT_FALSE(c.put(ck("a"), val(11)));
}

TEST(StaticCache, OverwriteConfiguredKeyUpdatesBytes) {
  StaticConfigCache c(100);
  c.install_configuration(config({"a"}));
  c.put(ck("a"), val(10));
  c.put(ck("a"), val(30));
  EXPECT_EQ(c.used_bytes(), 30u);
}

TEST(StaticCache, EraseAndClear) {
  StaticConfigCache c(100);
  c.install_configuration(config({"a", "b"}));
  c.put(ck("a"), val(10));
  c.put(ck("b"), val(10));
  EXPECT_TRUE(c.erase(ck("a")));
  EXPECT_EQ(c.used_bytes(), 10u);
  c.clear();
  EXPECT_EQ(c.used_bytes(), 0u);
  // Configuration survives clear; entries do not.
  EXPECT_TRUE(c.is_configured(ck("b")));
  EXPECT_FALSE(c.contains(ck("b")));
}

TEST(StaticCache, ReconfigurationCountIncrements) {
  StaticConfigCache c(100);
  EXPECT_EQ(c.reconfigurations(), 0u);
  c.install_configuration(std::vector<ChunkMask>{});
  c.install_configuration(config({"a"}));
  EXPECT_EQ(c.reconfigurations(), 2u);
}

TEST(StaticCache, EmptyConfigurationEvictsEverything) {
  StaticConfigCache c(100);
  c.install_configuration(config({"a", "b"}));
  c.put(ck("a"), val(10));
  c.put(ck("b"), val(10));
  c.install_configuration(std::vector<ChunkMask>{});
  EXPECT_EQ(c.used_bytes(), 0u);
  EXPECT_TRUE(c.keys().empty());
}

TEST(StaticCache, HitMissStats) {
  StaticConfigCache c(100);
  c.install_configuration(config({"a"}));
  c.put(ck("a"), val(5));
  (void)c.get(ck("a"));
  (void)c.get(ck("a"));
  (void)c.get(ck("zzz"));
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(StaticCache, CacheKeyAdaptersResolveThroughTheObjectTable) {
  store::ObjectTable objects;
  const ObjectId id = objects.intern("object7");
  StaticConfigCache c(100, &objects);
  std::vector<ChunkMask> masks(id + 1, 0);
  masks[id] = ChunkMask{1} << 3;
  c.install_configuration(masks);
  EXPECT_TRUE(c.put("object7#3", val(10)));
  EXPECT_TRUE(c.contains(objects.chunk(id, 3)));
  EXPECT_TRUE(c.contains("object7#3"));
  EXPECT_TRUE(c.get("object7#3").has_value());
  EXPECT_FALSE(c.put("object7#4", val(10)));  // not configured
  EXPECT_THROW((void)c.contains("object8#3"), std::out_of_range);
  EXPECT_THROW((void)c.contains("object7#03"), std::out_of_range);
  EXPECT_THROW((void)StaticConfigCache(100).contains("object7#3"),
               std::logic_error);
}

}  // namespace
}  // namespace agar::cache
