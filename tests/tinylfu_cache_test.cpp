// TinyLFU admission extension: frequency duels and sketch behaviour.
#include "cache/tinylfu_cache.hpp"

#include <gtest/gtest.h>

#include "chunk_keys.hpp"

namespace agar::cache {
namespace {

using test_keys::ck;

Bytes val(std::size_t n) { return Bytes(n, 0x5A); }

TEST(TinyLfuCache, BasicPutGet) {
  TinyLfuCache c(100);
  EXPECT_TRUE(c.put(ck("a"), val(10)));
  EXPECT_TRUE(c.get(ck("a")).has_value());
  EXPECT_FALSE(c.get(ck("b")).has_value());
}

TEST(TinyLfuCache, ColdCandidateCannotDisplacePopularVictim) {
  TinyLfuCache c(20);
  c.put(ck("hot"), val(20));
  for (int i = 0; i < 50; ++i) (void)c.get(ck("hot"));
  // "cold" has sketch estimate 0 < hot's; admission declines.
  EXPECT_FALSE(c.put(ck("cold"), val(20)));
  EXPECT_TRUE(c.contains(ck("hot")));
}

TEST(TinyLfuCache, PopularCandidateWinsDuel) {
  TinyLfuCache c(20);
  c.put(ck("old"), val(20));
  // Make "new" popular through gets (misses still record in the sketch).
  for (int i = 0; i < 50; ++i) (void)c.get(ck("new"));
  EXPECT_TRUE(c.put(ck("new"), val(20)));
  EXPECT_TRUE(c.contains(ck("new")));
  EXPECT_FALSE(c.contains(ck("old")));
}

TEST(TinyLfuCache, ResidentKeyAlwaysUpdatable) {
  TinyLfuCache c(30);
  c.put(ck("a"), val(10));
  EXPECT_TRUE(c.put(ck("a"), val(20)));  // no duel for residents
  EXPECT_EQ(c.used_bytes(), 20u);
}

TEST(TinyLfuCache, NoEvictionNeededNoDuel) {
  TinyLfuCache c(100);
  c.put(ck("a"), val(10));
  for (int i = 0; i < 50; ++i) (void)c.get(ck("a"));
  // Plenty of space: "b" admitted without displacing anyone.
  EXPECT_TRUE(c.put(ck("b"), val(10)));
}

TEST(TinyLfuCache, OversizedRejected) {
  TinyLfuCache c(10);
  EXPECT_FALSE(c.put(ck("big"), val(11)));
}

TEST(TinyLfuCache, CapacityInvariant) {
  TinyLfuCache c(100);
  for (int i = 0; i < 1000; ++i) {
    const std::string k = "k" + std::to_string(i % 37);
    (void)c.get(ck(k));
    c.put(ck(k), val(1 + i % 23));
    ASSERT_LE(c.used_bytes(), 100u);
  }
}

TEST(TinyLfuCache, EraseAndClear) {
  TinyLfuCache c(100);
  c.put(ck("a"), val(10));
  EXPECT_TRUE(c.erase(ck("a")));
  EXPECT_FALSE(c.erase(ck("a")));
  c.put(ck("b"), val(10));
  c.clear();
  EXPECT_EQ(c.used_bytes(), 0u);
  EXPECT_TRUE(c.keys().empty());
}

TEST(TinyLfuCache, SketchRecordsAccesses) {
  TinyLfuCache c(100);
  for (int i = 0; i < 10; ++i) (void)c.get(ck("watched"));
  EXPECT_GE(c.sketch().estimate("watched"), 10u);
}

TEST(TinyLfuCache, AgingHalvesEstimates) {
  TinyLfuParams p;
  p.aging_window = 100;
  TinyLfuCache c(100, p);
  for (int i = 0; i < 50; ++i) (void)c.get(ck("a"));
  const auto before = c.sketch().estimate("a");
  // Trigger aging with other traffic.
  for (int i = 0; i < 100; ++i) (void)c.get(ck("filler" + std::to_string(i)));
  EXPECT_LT(c.sketch().estimate("a"), before);
}

}  // namespace
}  // namespace agar::cache
