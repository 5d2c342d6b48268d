// Regional bucket: storage accounting and counters.
#include "store/bucket.hpp"

#include <gtest/gtest.h>

namespace agar::store {
namespace {

TEST(Bucket, PutThenGet) {
  Bucket b;
  b.put({0, 0}, Bytes{1, 2, 3});
  const auto v = b.get({0, 0});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(Bytes(v->begin(), v->end()), (Bytes{1, 2, 3}));
}

TEST(Bucket, GetMissing) {
  Bucket b;
  EXPECT_FALSE(b.get({0, 0}).has_value());
}

TEST(Bucket, ChunksWithSameKeyDifferentIndexAreDistinct) {
  Bucket b;
  b.put({0, 0}, Bytes{1});
  b.put({0, 1}, Bytes{2});
  EXPECT_EQ(b.num_chunks(), 2u);
  EXPECT_EQ((*b.get({0, 0}))[0], 1);
  EXPECT_EQ((*b.get({0, 1}))[0], 2);
}

TEST(Bucket, OverwriteUpdatesBytes) {
  Bucket b;
  b.put({0, 0}, Bytes(10));
  EXPECT_EQ(b.total_bytes(), 10u);
  b.put({0, 0}, Bytes(4));
  EXPECT_EQ(b.total_bytes(), 4u);
  EXPECT_EQ(b.num_chunks(), 1u);
}

TEST(Bucket, EraseRemovesAndAccounts) {
  Bucket b;
  b.put({0, 0}, Bytes(8));
  b.put({0, 1}, Bytes(8));
  EXPECT_TRUE(b.erase({0, 0}));
  EXPECT_FALSE(b.erase({0, 0}));
  EXPECT_EQ(b.total_bytes(), 8u);
  EXPECT_EQ(b.num_chunks(), 1u);
}

TEST(Bucket, CountersTrackTraffic) {
  Bucket b;
  b.put({0, 0}, Bytes(1));
  (void)b.get({0, 0});
  (void)b.get({1, 0});
  EXPECT_EQ(b.puts(), 1u);
  EXPECT_EQ(b.gets(), 2u);
}

TEST(Bucket, ContainsHasNoSideEffects) {
  Bucket b;
  b.put({0, 0}, Bytes(1));
  const auto gets_before = b.gets();
  EXPECT_TRUE(b.contains({0, 0}));
  EXPECT_FALSE(b.contains({0, 1}));
  EXPECT_EQ(b.gets(), gets_before);
}

}  // namespace
}  // namespace agar::store
