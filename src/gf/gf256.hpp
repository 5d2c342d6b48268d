// Arithmetic over GF(2^8), the Galois field with 256 elements.
//
// The field is constructed as GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1),
// i.e. the reducing polynomial 0x11D used by standard Reed-Solomon codes
// (the same field as ISA-L, Jerasure and Longhair's default tables).
//
// Addition is XOR. Multiplication/division/inversion use log/antilog tables
// generated once at static-initialization time from the generator element 2.
//
// Bulk operations (mul_slice, mul_add_slice, xor_slice, mul_rows) are the
// hot path of the erasure codec: dst[i] (^)= c * src[i] over whole chunk
// buffers, and mul_rows' matrix-times-chunks product. They are served by
// runtime-dispatched kernels — GF2P8AFFINEQB (GFNI) or split-nibble pshufb
// (AVX2, SSSE3) SIMD on x86, picked once at startup, with a portable
// 64-bit-word fallback — all behind this scalar-identical API.
// `set_backend` pins a specific kernel set (benchmarks, differential tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace agar::gf {

/// The reducing polynomial, sans the x^8 term: x^8 = x^4 + x^3 + x^2 + 1.
inline constexpr std::uint16_t kPolynomial = 0x11D;

/// Number of field elements.
inline constexpr int kFieldSize = 256;

/// Addition and subtraction coincide in characteristic 2.
[[nodiscard]] constexpr std::uint8_t add(std::uint8_t a, std::uint8_t b) {
  return a ^ b;
}
[[nodiscard]] constexpr std::uint8_t sub(std::uint8_t a, std::uint8_t b) {
  return a ^ b;
}

/// Multiply two field elements.
[[nodiscard]] std::uint8_t mul(std::uint8_t a, std::uint8_t b);

/// Divide a by b. Precondition: b != 0 (checked; throws std::domain_error).
[[nodiscard]] std::uint8_t div(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse. Precondition: a != 0 (checked).
[[nodiscard]] std::uint8_t inv(std::uint8_t a);

/// a raised to the integer power n (n may be 0; 0^0 == 1 by convention).
[[nodiscard]] std::uint8_t pow(std::uint8_t a, unsigned n);

/// The generator element (2) raised to the n-th power; n is reduced mod 255.
[[nodiscard]] std::uint8_t exp(unsigned n);

/// Discrete log base 2 of a nonzero element.
[[nodiscard]] std::uint8_t log(std::uint8_t a);

// --------------------------------------------------------- bulk kernels

/// dst[i] = c * src[i] for every i. dst and src must have equal sizes and
/// must not partially overlap (identical or disjoint is fine).
void mul_slice(std::uint8_t c, std::span<const std::uint8_t> src,
               std::span<std::uint8_t> dst);

/// dst[i] ^= c * src[i] for every i — the fused multiply-accumulate the
/// encoder/decoder inner loops are built from.
void mul_add_slice(std::uint8_t c, std::span<const std::uint8_t> src,
                   std::span<std::uint8_t> dst);

/// dst[i] ^= src[i] — the c == 1 kernel.
void xor_slice(std::span<const std::uint8_t> src,
               std::span<std::uint8_t> dst);

/// Legacy name for xor_slice.
inline void add_slice(std::span<const std::uint8_t> src,
                      std::span<std::uint8_t> dst) {
  xor_slice(src, dst);
}

/// Multi-row apply (ISA-L gf_Nvect_dot_prod style): for every output row r
///   outs[r][i] = coeffs[r*n+0]*srcs[0][i] ^ ... ^ coeffs[r*n+n-1]*srcs[n-1][i]
/// with n = srcs.size(), so `coeffs` is the outs.size() x srcs.size()
/// coefficient matrix, row-major. Outputs are written, not accumulated
/// into. Rows are computed in groups of up to four per pass over the
/// sources, so each source block is loaded once for the whole group.
/// Every src and out must have the same size; outputs must overlap neither
/// the sources nor each other. No sources means all-zero outputs. Throws
/// std::invalid_argument on a coefficient-count or size mismatch.
void mul_rows(std::span<const std::uint8_t> coeffs,
              std::span<const std::span<const std::uint8_t>> srcs,
              std::span<const std::span<std::uint8_t>> outs);

// ------------------------------------------------------ kernel dispatch

/// Kernel families, slowest to fastest. kAuto resolves to the best
/// supported one at first use.
enum class Backend : std::uint8_t {
  kScalar,      ///< byte-at-a-time 64 KiB-table lookups (reference)
  kPortable64,  ///< table lookups batched into 64-bit word loads/stores
  kSsse3,       ///< 16-byte split-nibble pshufb
  kAvx2,        ///< 32-byte split-nibble vpshufb
  kGfni,        ///< 32-byte vgf2p8affineqb (GFNI + AVX2, VEX-encoded)
};

[[nodiscard]] const char* backend_name(Backend b);

/// Is this kernel family compiled in AND supported by the running CPU?
[[nodiscard]] bool backend_supported(Backend b);

/// Every supported backend, slowest first (always contains kScalar).
[[nodiscard]] std::vector<Backend> supported_backends();

/// The backend currently serving the bulk kernels.
[[nodiscard]] Backend active_backend();

/// Pin the bulk kernels to one backend. Returns false (and changes
/// nothing) if it is not supported. Used by benchmarks and differential
/// tests; production code leaves the startup choice alone.
bool set_backend(Backend b);

/// Restore the automatic (best supported) choice.
void reset_backend();

}  // namespace agar::gf
