// Internal kernel plumbing shared by gf256.cpp (scalar + portable kernels,
// dispatch) and gf256_simd.cpp (SSSE3/AVX2/GFNI kernels). Not part of the
// public gf:: API — include gf/gf256.hpp instead.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace agar::gf::detail {

/// Output rows one mul_rows kernel call computes; gf::mul_rows splits wider
/// requests into groups of at most this many (one pass over the sources
/// per group). Four rows keep every SIMD accumulator in registers.
inline constexpr std::size_t kMaxRowsPerPass = 4;

/// Raw kernel signatures. Sizes are pre-validated and the c == 0 / c == 1
/// fast paths are taken by the public wrappers, so slice kernels only see
/// c >= 2 (mul kernels) and may assume src.size() == dst.size() == n.
struct KernelTable {
  void (*mul_slice)(std::uint8_t c, const std::uint8_t* src,
                    std::uint8_t* dst, std::size_t n);
  void (*mul_add_slice)(std::uint8_t c, const std::uint8_t* src,
                        std::uint8_t* dst, std::size_t n);
  void (*xor_slice)(const std::uint8_t* src, std::uint8_t* dst,
                    std::size_t n);
  /// Multi-row apply: outs[r][i] = XOR_j coeffs[r * nsrc + j] * srcs[j][i]
  /// for r < nrows, written (not accumulated) in one pass over the
  /// sources. 1 <= nrows <= kMaxRowsPerPass, nsrc >= 1; any coefficient,
  /// 0 and 1 included. Outputs overlap neither the sources nor each other.
  void (*mul_rows)(const std::uint8_t* coeffs,
                   const std::uint8_t* const* srcs, std::size_t nsrc,
                   std::uint8_t* const* outs, std::size_t nrows,
                   std::size_t n);
};

/// Precomputed multiplication tables.
struct Tables {
  /// exp_ has 512 entries so mul can index log[a]+log[b] without a mod.
  std::array<std::uint8_t, 512> exp_{};
  std::array<std::uint8_t, 256> log_{};
  /// 256x256 full multiplication table: 64 KiB, fits in L2 and makes the
  /// scalar/portable slice loops branch-free.
  std::array<std::array<std::uint8_t, 256>, 256> mul_{};
  /// Split-nibble tables for pshufb kernels (ISA-L gf_vect_mul_init
  /// layout): lo_[c][x] = c * x, hi_[c][x] = c * (x << 4) for x in
  /// [0, 16). A byte product is lo_[c][b & 15] ^ hi_[c][b >> 4].
  alignas(64) std::array<std::array<std::uint8_t, 16>, 256> lo_{};
  alignas(64) std::array<std::array<std::uint8_t, 16>, 256> hi_{};
  /// Multiplication by c as an 8x8 GF(2) bit matrix in the operand layout
  /// of gf2p8affineqb: bit i of c * x is the parity of
  /// (byte 7 - i of affine_[c]) & x, so bit j of that byte is bit i of
  /// c * 2^j. 2 KiB for all 256 coefficients.
  alignas(64) std::array<std::uint64_t, 256> affine_{};

  Tables();
};

const Tables& tables();

// Kernel sets defined in gf256.cpp.
extern const KernelTable kScalarKernels;
extern const KernelTable kPortable64Kernels;

// Kernel sets defined in gf256_simd.cpp. Null when the SIMD translation
// unit is compiled out (AGAR_DISABLE_SIMD or a non-x86 target); when
// non-null the CPU has been verified to support them at startup.
const KernelTable* ssse3_kernels();
const KernelTable* avx2_kernels();
const KernelTable* gfni_kernels();

}  // namespace agar::gf::detail
