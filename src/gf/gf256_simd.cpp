// SSSE3 / AVX2 split-nibble and GFNI affine GF(256) kernels (Longhair /
// ISA-L techniques).
//
// A byte b is (b & 0x0F) ^ (high nibble), and GF multiplication by a fixed
// c is GF(2)-linear, so c*b == lo_table[b & 15] ^ hi_table[b >> 4]. The two
// 16-entry tables fit exactly one pshufb register each: 16 (SSSE3) or 2x16
// (AVX2) products per shuffle pair, versus one per lookup in the scalar
// path. GFNI goes further: the same linear map is an 8x8 bit matrix, and
// one vgf2p8affineqb applies it to 32 bytes. (gf2p8mulb itself is no use
// here: it reduces by the AES polynomial 0x11B, not the codec's 0x11D.)
//
// mul_rows kernels compute up to kMaxRowsPerPass output rows per pass: each
// 32-byte (16-byte) source block is loaded — and, for the nibble kernels,
// split — once, then multiplied into every row's register accumulator.
//
// Functions carry `target` attributes so this file builds with the default
// compiler flags; the dispatcher in gf256.cpp only installs a kernel set
// after __builtin_cpu_supports verifies the CPU at startup. Unaligned
// loads/stores throughout — callers pass arbitrary chunk buffers.
#include "gf/gf256_kernels.hpp"

#if defined(__x86_64__) && !defined(AGAR_DISABLE_SIMD) && \
    (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

namespace agar::gf::detail {
namespace {

using RowsKernel = void (*)(const std::uint8_t* coeffs,
                            const std::uint8_t* const* srcs, std::size_t nsrc,
                            std::uint8_t* const* outs, std::size_t n);

/// Bytes [i, n) of every output row, one table lookup per product.
void mul_rows_tail(const std::uint8_t* coeffs, const std::uint8_t* const* srcs,
                   std::size_t nsrc, std::uint8_t* const* outs,
                   std::size_t nrows, std::size_t i, std::size_t n) {
  const auto& mul = tables().mul_;
  for (; i < n; ++i) {
    for (std::size_t r = 0; r < nrows; ++r) {
      const std::uint8_t* row = coeffs + r * nsrc;
      std::uint8_t b = 0;
      for (std::size_t j = 0; j < nsrc; ++j) b ^= mul[row[j]][srcs[j][i]];
      outs[r][i] = b;
    }
  }
}

/// Route a 1..kMaxRowsPerPass-row call to the kernel instantiated for that
/// row count, so the per-row accumulators are compile-time registers.
template <RowsKernel K1, RowsKernel K2, RowsKernel K3, RowsKernel K4>
void mul_rows_by_count(const std::uint8_t* coeffs,
                       const std::uint8_t* const* srcs, std::size_t nsrc,
                       std::uint8_t* const* outs, std::size_t nrows,
                       std::size_t n) {
  static_assert(kMaxRowsPerPass == 4);
  switch (nrows) {
    case 1:
      return K1(coeffs, srcs, nsrc, outs, n);
    case 2:
      return K2(coeffs, srcs, nsrc, outs, n);
    case 3:
      return K3(coeffs, srcs, nsrc, outs, n);
    default:
      return K4(coeffs, srcs, nsrc, outs, n);
  }
}

// ------------------------------------------------------------------ SSSE3

__attribute__((target("ssse3"))) inline __m128i mul_block_128(
    __m128i lo, __m128i hi, __m128i mask, __m128i s) {
  const __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
  const __m128i h =
      _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
  return _mm_xor_si128(l, h);
}

__attribute__((target("ssse3"))) void mul_slice_ssse3(std::uint8_t c,
                                                      const std::uint8_t* src,
                                                      std::uint8_t* dst,
                                                      std::size_t n) {
  const Tables& t = tables();
  const __m128i lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo_[c].data()));
  const __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi_[c].data()));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     mul_block_128(lo, hi, mask, s));
  }
  const auto& row = t.mul_[c];
  for (; i < n; ++i) dst[i] = row[src[i]];
}

__attribute__((target("ssse3"))) void mul_add_slice_ssse3(
    std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
    std::size_t n) {
  const Tables& t = tables();
  const __m128i lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo_[c].data()));
  const __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi_[c].data()));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, mul_block_128(lo, hi, mask, s)));
  }
  const auto& row = t.mul_[c];
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

__attribute__((target("ssse3"))) void xor_slice_ssse3(const std::uint8_t* src,
                                                      std::uint8_t* dst,
                                                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

template <std::size_t R>
__attribute__((target("ssse3"))) void mul_rows_ssse3(
    const std::uint8_t* coeffs, const std::uint8_t* const* srcs,
    std::size_t nsrc, std::uint8_t* const* outs, std::size_t n) {
  const Tables& t = tables();
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i acc[R];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) acc[r] = _mm_setzero_si128();
    for (std::size_t j = 0; j < nsrc; ++j) {
      const __m128i s =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[j] + i));
      const __m128i lo_idx = _mm_and_si128(s, mask);
      const __m128i hi_idx = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const std::uint8_t c = coeffs[r * nsrc + j];
        const __m128i lo =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo_[c].data()));
        const __m128i hi =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi_[c].data()));
        acc[r] = _mm_xor_si128(acc[r],
                               _mm_xor_si128(_mm_shuffle_epi8(lo, lo_idx),
                                             _mm_shuffle_epi8(hi, hi_idx)));
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(outs[r] + i), acc[r]);
    }
  }
  mul_rows_tail(coeffs, srcs, nsrc, outs, R, i, n);
}

// ------------------------------------------------------------------- AVX2

__attribute__((target("avx2"))) inline __m256i mul_block_256(__m256i lo,
                                                             __m256i hi,
                                                             __m256i mask,
                                                             __m256i s) {
  const __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
  const __m256i h =
      _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
  return _mm256_xor_si256(l, h);
}

__attribute__((target("avx2"))) inline __m256i load_nibble_table(
    const std::uint8_t* table16) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(table16)));
}

__attribute__((target("avx2"))) void mul_slice_avx2(std::uint8_t c,
                                                    const std::uint8_t* src,
                                                    std::uint8_t* dst,
                                                    std::size_t n) {
  const Tables& t = tables();
  const __m256i lo = load_nibble_table(t.lo_[c].data());
  const __m256i hi = load_nibble_table(t.hi_[c].data());
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul_block_256(lo, hi, mask, s));
  }
  const auto& row = t.mul_[c];
  for (; i < n; ++i) dst[i] = row[src[i]];
}

__attribute__((target("avx2"))) void mul_add_slice_avx2(
    std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
    std::size_t n) {
  const Tables& t = tables();
  const __m256i lo = load_nibble_table(t.lo_[c].data());
  const __m256i hi = load_nibble_table(t.hi_[c].data());
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  // 2x unroll: keeps both shuffle ports busy on the 64-byte steady state.
  for (; i + 64 <= n; i += 64) {
    const __m256i s0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d0, mul_block_256(lo, hi, mask, s0)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_xor_si256(d1, mul_block_256(lo, hi, mask, s1)));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, mul_block_256(lo, hi, mask, s)));
  }
  const auto& row = t.mul_[c];
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

__attribute__((target("avx2"))) void xor_slice_avx2(const std::uint8_t* src,
                                                    std::uint8_t* dst,
                                                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

template <std::size_t R>
__attribute__((target("avx2"))) void mul_rows_avx2(
    const std::uint8_t* coeffs, const std::uint8_t* const* srcs,
    std::size_t nsrc, std::uint8_t* const* outs, std::size_t n) {
  const Tables& t = tables();
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  // The per-coefficient nibble-table loads stay hot in L1 across blocks.
  for (; i + 32 <= n; i += 32) {
    __m256i acc[R];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) acc[r] = _mm256_setzero_si256();
    for (std::size_t j = 0; j < nsrc; ++j) {
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i));
      const __m256i lo_idx = _mm256_and_si256(s, mask);
      const __m256i hi_idx = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const std::uint8_t c = coeffs[r * nsrc + j];
        const __m256i lo = load_nibble_table(t.lo_[c].data());
        const __m256i hi = load_nibble_table(t.hi_[c].data());
        acc[r] = _mm256_xor_si256(
            acc[r], _mm256_xor_si256(_mm256_shuffle_epi8(lo, lo_idx),
                                     _mm256_shuffle_epi8(hi, hi_idx)));
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(outs[r] + i), acc[r]);
    }
  }
  mul_rows_tail(coeffs, srcs, nsrc, outs, R, i, n);
}

// ------------------------------------------------------------------- GFNI
//
// VEX-encoded 256-bit vgf2p8affineqb: needs GFNI and AVX2, not AVX-512.
// (The 512-bit form measured no faster on chunk-sized buffers: both widths
// end up waiting on memory.)

__attribute__((target("gfni,avx2"))) inline __m256i affine_matrix(
    const Tables& t, std::uint8_t c) {
  return _mm256_set1_epi64x(static_cast<long long>(t.affine_[c]));
}

__attribute__((target("gfni,avx2"))) inline __m256i mul_block_gfni(
    __m256i matrix, __m256i s) {
  return _mm256_gf2p8affine_epi64_epi8(s, matrix, 0);
}

__attribute__((target("gfni,avx2"))) void mul_slice_gfni(
    std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
    std::size_t n) {
  const __m256i a = affine_matrix(tables(), c);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul_block_gfni(a, s));
  }
  const auto& row = tables().mul_[c];
  for (; i < n; ++i) dst[i] = row[src[i]];
}

__attribute__((target("gfni,avx2"))) void mul_add_slice_gfni(
    std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
    std::size_t n) {
  const __m256i a = affine_matrix(tables(), c);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, mul_block_gfni(a, s)));
  }
  const auto& row = tables().mul_[c];
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

template <std::size_t R>
__attribute__((target("gfni,avx2"))) void mul_rows_gfni(
    const std::uint8_t* coeffs, const std::uint8_t* const* srcs,
    std::size_t nsrc, std::uint8_t* const* outs, std::size_t n) {
  const Tables& t = tables();
  std::size_t i = 0;
  // 64-byte steady state: two independent affine chains per row.
  for (; i + 64 <= n; i += 64) {
    __m256i acc0[R];
    __m256i acc1[R];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      acc0[r] = _mm256_setzero_si256();
      acc1[r] = _mm256_setzero_si256();
    }
    for (std::size_t j = 0; j < nsrc; ++j) {
      const __m256i s0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i));
      const __m256i s1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(srcs[j] + i + 32));
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const __m256i a = affine_matrix(t, coeffs[r * nsrc + j]);
        acc0[r] = _mm256_xor_si256(acc0[r], mul_block_gfni(a, s0));
        acc1[r] = _mm256_xor_si256(acc1[r], mul_block_gfni(a, s1));
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(outs[r] + i), acc0[r]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(outs[r] + i + 32),
                          acc1[r]);
    }
  }
  for (; i + 32 <= n; i += 32) {
    __m256i acc[R];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) acc[r] = _mm256_setzero_si256();
    for (std::size_t j = 0; j < nsrc; ++j) {
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i));
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = _mm256_xor_si256(
            acc[r], mul_block_gfni(affine_matrix(t, coeffs[r * nsrc + j]), s));
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(outs[r] + i), acc[r]);
    }
  }
  mul_rows_tail(coeffs, srcs, nsrc, outs, R, i, n);
}

}  // namespace

const KernelTable* ssse3_kernels() {
  static const KernelTable table{
      mul_slice_ssse3, mul_add_slice_ssse3, xor_slice_ssse3,
      mul_rows_by_count<mul_rows_ssse3<1>, mul_rows_ssse3<2>,
                        mul_rows_ssse3<3>, mul_rows_ssse3<4>>};
  static const bool supported = __builtin_cpu_supports("ssse3");
  return supported ? &table : nullptr;
}

const KernelTable* avx2_kernels() {
  static const KernelTable table{
      mul_slice_avx2, mul_add_slice_avx2, xor_slice_avx2,
      mul_rows_by_count<mul_rows_avx2<1>, mul_rows_avx2<2>, mul_rows_avx2<3>,
                        mul_rows_avx2<4>>};
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &table : nullptr;
}

const KernelTable* gfni_kernels() {
  static const KernelTable table{
      mul_slice_gfni, mul_add_slice_gfni, xor_slice_avx2,
      mul_rows_by_count<mul_rows_gfni<1>, mul_rows_gfni<2>, mul_rows_gfni<3>,
                        mul_rows_gfni<4>>};
  static const bool supported =
      __builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx2");
  return supported ? &table : nullptr;
}

}  // namespace agar::gf::detail

#else  // SIMD compiled out: portable dispatch only.

namespace agar::gf::detail {

const KernelTable* ssse3_kernels() { return nullptr; }
const KernelTable* avx2_kernels() { return nullptr; }
const KernelTable* gfni_kernels() { return nullptr; }

}  // namespace agar::gf::detail

#endif
