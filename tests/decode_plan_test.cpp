// Decode-plan cache: exhaustive sweep over every RS(9,3) erasure pattern —
// all C(12,9) = 220 ways to pick 9 surviving chunks — verifying
// byte-identical reconstruction, correct hit/miss accounting, and that the
// SIMD and portable kernel paths produce identical bytes end to end.
#include "ec/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "common/rng.hpp"
#include "gf/gf256.hpp"

namespace agar::ec {
namespace {

constexpr std::size_t kK = 9;
constexpr std::size_t kM = 3;
constexpr std::size_t kTotal = kK + kM;

struct Stripe {
  std::vector<Bytes> chunks;  // k data followed by m parity
};

Stripe make_stripe(const ReedSolomon& rs, std::size_t chunk_size,
                   std::uint64_t seed) {
  Stripe s;
  Rng rng(seed);
  std::vector<BytesView> views;
  for (std::size_t i = 0; i < kK; ++i) {
    Bytes c(chunk_size);
    rng.fill_bytes(c.data(), c.size());
    s.chunks.push_back(std::move(c));
  }
  for (const auto& c : s.chunks) views.emplace_back(c);
  for (auto& p : rs.encode(views)) s.chunks.push_back(std::move(p));
  return s;
}

std::vector<std::uint32_t> mask_to_indices(unsigned mask) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < kTotal; ++i) {
    if (mask & (1u << i)) out.push_back(i);
  }
  return out;
}

TEST(DecodePlanCache, AllErasurePatternsReconstructAndCache) {
  const ReedSolomon rs(CodecParams{kK, kM});
  const Stripe stripe = make_stripe(rs, 333, 7);

  std::size_t patterns = 0;
  std::size_t inverting_patterns = 0;  // any pattern missing a data chunk
  for (unsigned mask = 0; mask < (1u << kTotal); ++mask) {
    if (std::popcount(mask) != static_cast<int>(kK)) continue;
    ++patterns;
    const auto indices = mask_to_indices(mask);
    const bool all_data = indices.back() < kK;
    if (!all_data) ++inverting_patterns;

    std::vector<std::pair<std::uint32_t, BytesView>> available;
    for (const auto i : indices) {
      available.emplace_back(i, BytesView(stripe.chunks[i]));
    }
    const auto out = rs.reconstruct_data(available);
    ASSERT_EQ(out.size(), kK);
    for (std::size_t d = 0; d < kK; ++d) {
      ASSERT_EQ(out[d], stripe.chunks[d]) << "mask=" << mask << " d=" << d;
    }
  }
  EXPECT_EQ(patterns, 220u);       // C(12,9)
  EXPECT_EQ(inverting_patterns, 219u);  // only {0..8} skips inversion

  // First sweep: every inverting pattern was a miss, none a hit; the
  // all-data fast path never consults the cache.
  EXPECT_EQ(rs.decode_plan_misses(), 219u);
  EXPECT_EQ(rs.decode_plan_hits(), 0u);
  EXPECT_EQ(rs.decode_plan_cache_size(), 219u);

  // Second sweep: all hits, no new plans, identical bytes.
  for (unsigned mask = 0; mask < (1u << kTotal); ++mask) {
    if (std::popcount(mask) != static_cast<int>(kK)) continue;
    std::vector<std::pair<std::uint32_t, BytesView>> available;
    for (const auto i : mask_to_indices(mask)) {
      available.emplace_back(i, BytesView(stripe.chunks[i]));
    }
    const auto out = rs.reconstruct_data(available);
    for (std::size_t d = 0; d < kK; ++d) {
      ASSERT_EQ(out[d], stripe.chunks[d]);
    }
  }
  EXPECT_EQ(rs.decode_plan_misses(), 219u);
  EXPECT_EQ(rs.decode_plan_hits(), 219u);
  EXPECT_EQ(rs.decode_plan_cache_size(), 219u);
}

TEST(DecodePlanCache, AvailableOrderDoesNotAffectPlanOrBytes) {
  const ReedSolomon rs(CodecParams{kK, kM});
  const Stripe stripe = make_stripe(rs, 128, 11);

  // Same surviving set handed over in two different orders must share one
  // cached plan and reconstruct identically.
  const std::vector<std::uint32_t> fwd = {1, 2, 3, 4, 5, 6, 7, 9, 11};
  std::vector<std::uint32_t> rev(fwd.rbegin(), fwd.rend());
  auto avail = [&](const std::vector<std::uint32_t>& order) {
    std::vector<std::pair<std::uint32_t, BytesView>> out;
    for (const auto i : order) {
      out.emplace_back(i, BytesView(stripe.chunks[i]));
    }
    return out;
  };
  const auto a = rs.reconstruct_data(avail(fwd));
  EXPECT_EQ(rs.decode_plan_misses(), 1u);
  const auto b = rs.reconstruct_data(avail(rev));
  EXPECT_EQ(rs.decode_plan_misses(), 1u);
  EXPECT_EQ(rs.decode_plan_hits(), 1u);
  EXPECT_EQ(a, b);
  for (std::size_t d = 0; d < kK; ++d) EXPECT_EQ(a[d], stripe.chunks[d]);
}

TEST(DecodePlanCache, ClearDropsPlans) {
  const ReedSolomon rs(CodecParams{kK, kM});
  const Stripe stripe = make_stripe(rs, 64, 13);
  std::vector<std::pair<std::uint32_t, BytesView>> available;
  for (std::uint32_t i = 1; i <= kK; ++i) {
    available.emplace_back(i, BytesView(stripe.chunks[i]));
  }
  (void)rs.reconstruct_data(available);
  EXPECT_EQ(rs.decode_plan_cache_size(), 1u);
  rs.clear_decode_plan_cache();
  EXPECT_EQ(rs.decode_plan_cache_size(), 0u);
  (void)rs.reconstruct_data(available);
  EXPECT_EQ(rs.decode_plan_misses(), 2u);
}

TEST(DecodePlanCache, BackendsProduceIdenticalEncodeAndDecode) {
  // SIMD and portable/scalar kernels must agree byte-for-byte through the
  // whole codec, for every erasure pattern.
  const ReedSolomon rs(CodecParams{kK, kM});
  Rng rng(17);
  std::vector<Bytes> data;
  std::vector<BytesView> views;
  for (std::size_t i = 0; i < kK; ++i) {
    Bytes c(257);  // odd size: every kernel exercises its tail path
    rng.fill_bytes(c.data(), c.size());
    data.push_back(std::move(c));
  }
  for (const auto& d : data) views.emplace_back(d);

  std::vector<std::vector<Bytes>> parities;
  std::vector<std::vector<std::vector<Bytes>>> decodes;
  for (const gf::Backend b : gf::supported_backends()) {
    ASSERT_TRUE(gf::set_backend(b));
    parities.push_back(rs.encode(views));

    std::vector<std::vector<Bytes>> per_pattern;
    std::vector<Bytes> all = data;
    for (auto& p : parities.back()) all.push_back(p);
    for (unsigned mask = 0; mask < (1u << kTotal); ++mask) {
      if (std::popcount(mask) != static_cast<int>(kK)) continue;
      std::vector<std::pair<std::uint32_t, BytesView>> available;
      for (const auto i : mask_to_indices(mask)) {
        available.emplace_back(i, BytesView(all[i]));
      }
      rs.clear_decode_plan_cache();  // force the full decode path each time
      per_pattern.push_back(rs.reconstruct_data(available));
    }
    decodes.push_back(std::move(per_pattern));
  }
  gf::reset_backend();

  for (std::size_t b = 1; b < parities.size(); ++b) {
    EXPECT_EQ(parities[b], parities[0]);
    EXPECT_EQ(decodes[b], decodes[0]);
  }
}

TEST(DecodePlanCache, DataViewsMatchReconstructDataOnEveryPattern) {
  // reconstruct_data_views is the one reconstruction path. For every
  // erasure pattern, on every kernel backend, its views carry the bytes of
  // the owning reconstruct_data, consult the decode plan exactly as often,
  // hand present data chunks back zero-copy, and reuse the scratch: after
  // the first inverting call its buffers never move again.
  const Stripe stripe = make_stripe(ReedSolomon(CodecParams{kK, kM}), 333, 29);
  for (const gf::Backend b : gf::supported_backends()) {
    ASSERT_TRUE(gf::set_backend(b));
    const ReedSolomon owning(CodecParams{kK, kM});
    const ReedSolomon viewing(CodecParams{kK, kM});
    DecodeScratch scratch;
    const std::uint8_t* erased_slots = nullptr;
    const BytesView* data_views = nullptr;
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (unsigned mask = 0; mask < (1u << kTotal); ++mask) {
        if (std::popcount(mask) != static_cast<int>(kK)) continue;
        std::vector<std::pair<std::uint32_t, BytesView>> available;
        for (const auto i : mask_to_indices(mask)) {
          available.emplace_back(i, BytesView(stripe.chunks[i]));
        }
        const auto expected = owning.reconstruct_data(available);
        const auto views = viewing.reconstruct_data_views(available, scratch);
        ASSERT_EQ(views.size(), kK);
        for (std::size_t d = 0; d < kK; ++d) {
          ASSERT_TRUE(std::equal(views[d].begin(), views[d].end(),
                                 expected[d].begin(), expected[d].end()))
              << "mask=" << mask << " d=" << d;
          if ((mask & (1u << d)) != 0) {
            ASSERT_EQ(views[d].data(), stripe.chunks[d].data());
          } else {
            ASSERT_GE(views[d].data(), scratch.erased.data());
            ASSERT_LE(views[d].data() + views[d].size(),
                      scratch.erased.data() + scratch.erased.size());
          }
        }
        ASSERT_EQ(viewing.decode_plan_hits(), owning.decode_plan_hits());
        ASSERT_EQ(viewing.decode_plan_misses(), owning.decode_plan_misses());

        if (data_views == nullptr) data_views = views.data();
        ASSERT_EQ(views.data(), data_views);
        if (mask_to_indices(mask).back() < kK) continue;  // nothing rebuilt
        if (erased_slots == nullptr) erased_slots = scratch.erased.data();
        ASSERT_EQ(scratch.erased.data(), erased_slots) << "mask=" << mask;
      }
    }
    EXPECT_EQ(viewing.decode_plan_misses(), 219u);
    EXPECT_EQ(viewing.decode_plan_hits(), 219u);
  }
  gf::reset_backend();
}

TEST(DecodePlanCache, WideCodesMatchScalarOnEveryBackend) {
  // Codes wider than one four-row group of gf::mul_rows: RS(4,8) encodes
  // eight parity rows (groups of 4 + 4) and RS(6,6) with every data chunk
  // erased rebuilds six rows (4 + 2). Every backend must produce the
  // scalar bytes, and the decode must give back the data.
  struct Case {
    std::size_t k, m;
  };
  for (const Case c : {Case{4, 8}, Case{6, 6}}) {
    Rng rng(31 + c.k);
    std::vector<Bytes> data;
    std::vector<BytesView> views;
    for (std::size_t i = 0; i < c.k; ++i) {
      Bytes chunk(4096 + 35);  // a 64-byte steady state plus every tail
      rng.fill_bytes(chunk.data(), chunk.size());
      data.push_back(std::move(chunk));
    }
    for (const auto& d : data) views.emplace_back(d);

    std::vector<Bytes> scalar_parity;
    std::vector<Bytes> scalar_decode;
    for (const gf::Backend b : gf::supported_backends()) {
      ASSERT_TRUE(gf::set_backend(b));
      const ReedSolomon rs(CodecParams{c.k, c.m});
      const std::vector<Bytes> parity = rs.encode(views);
      ASSERT_EQ(parity.size(), c.m);
      // Parity chunks only, so every data row is erased.
      std::vector<std::pair<std::uint32_t, BytesView>> available;
      for (std::size_t p = 0; p < c.k; ++p) {
        available.emplace_back(static_cast<std::uint32_t>(c.k + p),
                               BytesView(parity[p]));
      }
      const std::vector<Bytes> decoded = rs.reconstruct_data(available);
      EXPECT_EQ(decoded, data) << gf::backend_name(b) << " RS(" << c.k
                               << "," << c.m << ")";
      if (b == gf::Backend::kScalar) {
        scalar_parity = parity;
        scalar_decode = decoded;
      } else {
        EXPECT_EQ(parity, scalar_parity) << gf::backend_name(b);
        EXPECT_EQ(decoded, scalar_decode) << gf::backend_name(b);
      }
      // The last parity row again, alone, through reconstruct_chunk.
      const auto target = static_cast<std::uint32_t>(c.k + c.m - 1);
      if (c.m > c.k) {
        EXPECT_EQ(rs.reconstruct_chunk(target, available), parity.back());
      }
    }
    gf::reset_backend();
  }
}

TEST(DecodePlanCache, ReconstructChunkUsesCacheToo) {
  const ReedSolomon rs(CodecParams{kK, kM});
  const Stripe stripe = make_stripe(rs, 100, 23);
  std::vector<std::pair<std::uint32_t, BytesView>> available;
  for (std::uint32_t i = 1; i < kK; ++i) {
    available.emplace_back(i, BytesView(stripe.chunks[i]));
  }
  available.emplace_back(10, BytesView(stripe.chunks[10]));

  const Bytes rebuilt0 = rs.reconstruct_chunk(0, available);
  EXPECT_EQ(rebuilt0, stripe.chunks[0]);
  const Bytes rebuilt11 = rs.reconstruct_chunk(11, available);
  EXPECT_EQ(rebuilt11, stripe.chunks[11]);
  EXPECT_EQ(rs.decode_plan_misses(), 1u);
  EXPECT_EQ(rs.decode_plan_hits(), 1u);
}

}  // namespace
}  // namespace agar::ec
