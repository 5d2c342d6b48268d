// Differential property tests for the GF(256) bulk-kernel backends: every
// runtime-supported kernel set (portable64, SSSE3, AVX2, GFNI) must agree
// with the scalar reference byte-for-byte over random coefficients, awkward
// lengths (0, 1, non-multiples of 16/32) and misaligned buffers. The GFNI
// bit matrices are also checked by a software gf2p8affineqb, so they are
// proven right on hosts without GFNI.
#include "gf/gf256.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hpp"
#include "gf/gf256_kernels.hpp"

namespace agar::gf {
namespace {

/// Pin a backend for one scope; restores the automatic choice on exit.
class BackendGuard {
 public:
  explicit BackendGuard(Backend b) { EXPECT_TRUE(set_backend(b)); }
  ~BackendGuard() { reset_backend(); }
};

// Lengths straddling every kernel's block size (8, 16, 32, 64) plus a
// chunk-scale one.
const std::vector<std::size_t> kLengths = {
    0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 257, 4096,
    114 * 1024 + 3};

std::vector<std::uint8_t> random_buf(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  rng.fill_bytes(out.data(), out.size());
  return out;
}

TEST(GfBackends, ScalarAlwaysSupported) {
  EXPECT_TRUE(backend_supported(Backend::kScalar));
  EXPECT_TRUE(backend_supported(Backend::kPortable64));
  const auto all = supported_backends();
  EXPECT_GE(all.size(), 2u);
}

TEST(GfBackends, SetAndResetBackend) {
  const Backend original = active_backend();
  ASSERT_TRUE(set_backend(Backend::kScalar));
  EXPECT_EQ(active_backend(), Backend::kScalar);
  reset_backend();
  EXPECT_EQ(active_backend(), original);
}

TEST(GfBackends, BackendNamesAreDistinct) {
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kPortable64), "portable64");
  EXPECT_STREQ(backend_name(Backend::kSsse3), "ssse3");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(backend_name(Backend::kGfni), "gfni");
}

TEST(GfBackends, MulSliceMatchesScalarReference) {
  Rng rng(1001);
  for (const Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (const std::size_t n : kLengths) {
      const auto src = random_buf(rng, n);
      const std::uint8_t c = static_cast<std::uint8_t>(rng.next_below(256));
      std::vector<std::uint8_t> dst(n, 0xEE);
      mul_slice(c, src, dst);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[i], mul(c, src[i]))
            << backend_name(b) << " c=" << int(c) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(GfBackends, MulAddSliceMatchesScalarReference) {
  Rng rng(1002);
  for (const Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (const std::size_t n : kLengths) {
      // Sweep the special coefficients plus random ones.
      for (const int c0 : {0, 1, 2, 0x1D, -1}) {
        const std::uint8_t c =
            c0 < 0 ? static_cast<std::uint8_t>(rng.next_below(256))
                   : static_cast<std::uint8_t>(c0);
        const auto src = random_buf(rng, n);
        auto dst = random_buf(rng, n);
        const auto before = dst;
        mul_add_slice(c, src, dst);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(dst[i], static_cast<std::uint8_t>(before[i] ^
                                                      mul(c, src[i])))
              << backend_name(b) << " c=" << int(c) << " n=" << n
              << " i=" << i;
        }
      }
    }
  }
}

TEST(GfBackends, XorSliceMatchesScalarReference) {
  Rng rng(1003);
  for (const Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (const std::size_t n : kLengths) {
      const auto src = random_buf(rng, n);
      auto dst = random_buf(rng, n);
      const auto before = dst;
      xor_slice(src, dst);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[i], static_cast<std::uint8_t>(before[i] ^ src[i]));
      }
    }
  }
}

TEST(GfBackends, KernelsHandleMisalignedBuffers) {
  Rng rng(1004);
  for (const Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (std::size_t offset = 0; offset < 4; ++offset) {
      const std::size_t n = 1000;
      const auto src_store = random_buf(rng, n + 8);
      auto dst_store = random_buf(rng, n + 8);
      const auto dst_before = dst_store;
      const std::uint8_t c = 0xA7;
      // Views deliberately offset from the allocation start.
      std::span<const std::uint8_t> src(src_store.data() + offset, n);
      std::span<std::uint8_t> dst(dst_store.data() + offset, n);
      mul_add_slice(c, src, dst);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst_store[offset + i],
                  static_cast<std::uint8_t>(dst_before[offset + i] ^
                                            mul(c, src_store[offset + i])))
            << backend_name(b) << " offset=" << offset << " i=" << i;
      }
      // Bytes outside the span must be untouched.
      for (std::size_t i = 0; i < offset; ++i) {
        ASSERT_EQ(dst_store[i], dst_before[i]);
      }
      for (std::size_t i = offset + n; i < dst_store.size(); ++i) {
        ASSERT_EQ(dst_store[i], dst_before[i]);
      }
    }
  }
}

/// Reference product of one coefficient row with the sources at byte i.
std::uint8_t dot(const std::vector<std::uint8_t>& coeffs, std::size_t row,
                 const std::vector<std::span<const std::uint8_t>>& srcs,
                 std::size_t i) {
  std::uint8_t b = 0;
  for (std::size_t j = 0; j < srcs.size(); ++j) {
    b ^= mul(coeffs[row * srcs.size() + j], srcs[j][i]);
  }
  return b;
}

TEST(GfBackends, MulRowsMatchesScalarReference) {
  Rng rng(1005);
  constexpr std::size_t kGuard = 8;
  for (std::size_t nrows = 1; nrows <= 5; ++nrows) {
    for (std::size_t nsrc = 1; nsrc <= 12; ++nsrc) {
      for (const std::size_t n : kLengths) {
        // Every buffer starts at its own offset from its allocation, so
        // sources and outputs are misaligned relative to each other too.
        std::vector<std::vector<std::uint8_t>> src_store;
        std::vector<std::span<const std::uint8_t>> srcs;
        for (std::size_t j = 0; j < nsrc; ++j) {
          src_store.push_back(random_buf(rng, n + kGuard));
        }
        for (std::size_t j = 0; j < nsrc; ++j) {
          srcs.emplace_back(src_store[j].data() + (j + n) % 4, n);
        }
        // Zero and one coefficients in every row, plus an all-zero last
        // row once there are three rows: outputs are written, so its
        // garbage must come back zeroed.
        std::vector<std::uint8_t> coeffs(nrows * nsrc);
        for (std::size_t r = 0; r < nrows; ++r) {
          for (std::size_t j = 0; j < nsrc; ++j) {
            const std::size_t pick = (r + j) % 5;
            coeffs[r * nsrc + j] =
                (nrows >= 3 && r + 1 == nrows) ? 0
                : pick == 0                    ? 0
                : pick == 1                    ? 1
                    : static_cast<std::uint8_t>(rng.next_below(256));
          }
        }
        std::vector<std::vector<std::uint8_t>> expected(nrows);
        for (std::size_t r = 0; r < nrows; ++r) {
          expected[r].resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            expected[r][i] = dot(coeffs, r, srcs, i);
          }
        }

        for (const Backend b : supported_backends()) {
          BackendGuard guard(b);
          std::vector<std::vector<std::uint8_t>> out_store;
          std::vector<std::span<std::uint8_t>> outs;
          for (std::size_t r = 0; r < nrows; ++r) {
            out_store.push_back(random_buf(rng, n + kGuard));
          }
          const auto before = out_store;
          for (std::size_t r = 0; r < nrows; ++r) {
            outs.emplace_back(out_store[r].data() + (r + 1) % 4, n);
          }
          mul_rows(coeffs, srcs, outs);
          for (std::size_t r = 0; r < nrows; ++r) {
            const std::size_t off = (r + 1) % 4;
            ASSERT_TRUE(std::equal(expected[r].begin(), expected[r].end(),
                                   out_store[r].begin() +
                                       static_cast<std::ptrdiff_t>(off)))
                << backend_name(b) << " rows=" << nrows << " srcs=" << nsrc
                << " n=" << n << " row=" << r;
            // Guard bytes on either side of the output are untouched.
            for (std::size_t i = 0; i < out_store[r].size(); ++i) {
              if (i >= off && i < off + n) continue;
              ASSERT_EQ(out_store[r][i], before[r][i])
                  << backend_name(b) << " guard byte " << i;
            }
          }
        }
      }
    }
  }
}

TEST(GfBackends, MulRowsValidatesShapes) {
  std::vector<std::uint8_t> a(4), dst(4);
  std::vector<std::span<const std::uint8_t>> srcs{
      std::span<const std::uint8_t>(a)};
  std::vector<std::span<std::uint8_t>> outs{std::span<std::uint8_t>(dst)};
  const std::vector<std::uint8_t> two_coeffs{1, 2};
  EXPECT_THROW(mul_rows(two_coeffs, srcs, outs), std::invalid_argument);
  const std::vector<std::uint8_t> one_coeff{1};
  std::vector<std::uint8_t> short_buf(3);
  srcs[0] = std::span<const std::uint8_t>(short_buf);
  EXPECT_THROW(mul_rows(one_coeff, srcs, outs), std::invalid_argument);
  srcs[0] = std::span<const std::uint8_t>(a);
  outs.emplace_back(short_buf);
  EXPECT_THROW(mul_rows(std::vector<std::uint8_t>{1, 1}, srcs, outs),
               std::invalid_argument);
}

TEST(GfBackends, MulRowsWithoutSourcesZeroesOutputs) {
  std::vector<std::uint8_t> a(64, 0xCD), b(64, 0xEF);
  const std::vector<std::span<std::uint8_t>> outs{
      std::span<std::uint8_t>(a), std::span<std::uint8_t>(b)};
  mul_rows({}, {}, outs);
  EXPECT_EQ(a, std::vector<std::uint8_t>(64, 0));
  EXPECT_EQ(b, std::vector<std::uint8_t>(64, 0));
}

// Software gf2p8affineqb (Intel SDM): bit i of the result byte is the
// parity of (byte 7 - i of the matrix) AND x; imm8 is 0.
std::uint8_t affine_byte(std::uint64_t matrix, std::uint8_t x) {
  std::uint8_t out = 0;
  for (int i = 0; i < 8; ++i) {
    const auto row = static_cast<std::uint8_t>(matrix >> (8 * (7 - i)));
    const int bit = std::popcount(static_cast<unsigned>(row & x)) & 1;
    out = static_cast<std::uint8_t>(out | (bit << i));
  }
  return out;
}

TEST(GfAffine, MatricesMultiplyEveryByte) {
  const auto& affine = detail::tables().affine_;
  for (int c = 0; c < 256; ++c) {
    for (int x = 0; x < 256; ++x) {
      ASSERT_EQ(affine_byte(affine[static_cast<std::size_t>(c)],
                            static_cast<std::uint8_t>(x)),
                mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(x)))
          << "c=" << c << " x=" << x;
    }
  }
}

// exp/pow now fold exponents instead of dividing; pin the identities.
TEST(GfExpFold, ExpMatchesNaiveModulo) {
  for (unsigned n = 0; n < 3000; ++n) {
    EXPECT_EQ(exp(n), exp(n % 255u)) << n;
  }
  // Large exponents, including ones whose byte-fold takes several rounds.
  for (const unsigned n : {100000u, 16777215u, 4294967295u, 65025u}) {
    EXPECT_EQ(exp(n), exp(n % 255u)) << n;
  }
}

TEST(GfExpFold, PowMatchesSquareAndMultiply) {
  Rng rng(1006);
  for (int t = 0; t < 500; ++t) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const unsigned n = static_cast<unsigned>(rng.next_below(1u << 20));
    std::uint8_t expected = 1;
    std::uint8_t base = a;
    unsigned e = n;
    bool zero = (a == 0 && n > 0);
    while (e != 0 && !zero) {
      if (e & 1) expected = mul(expected, base);
      base = mul(base, base);
      e >>= 1;
    }
    EXPECT_EQ(pow(a, n), zero ? 0 : expected) << int(a) << "^" << n;
  }
}

}  // namespace
}  // namespace agar::gf
