#include "gf/gf256.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "gf/gf256_kernels.hpp"

namespace agar::gf {

namespace detail {

Tables::Tables() {
  std::uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    exp_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
    exp_[static_cast<std::size_t>(i) + 255] = static_cast<std::uint8_t>(x);
    log_[static_cast<std::uint8_t>(x)] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPolynomial;
  }
  exp_[510] = exp_[0];
  exp_[511] = exp_[1];
  log_[0] = 0;  // never consulted for 0; guarded by callers.

  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      if (a == 0 || b == 0) {
        mul_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = 0;
      } else {
        mul_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
            exp_[static_cast<std::size_t>(log_[static_cast<std::size_t>(a)]) +
                 static_cast<std::size_t>(log_[static_cast<std::size_t>(b)])];
      }
    }
  }

  // Split-nibble tables derive from the full table: every byte b is
  // (b & 15) ^ (b & 0xF0), and multiplication is linear over GF(2).
  for (std::size_t c = 0; c < 256; ++c) {
    for (std::size_t x4 = 0; x4 < 16; ++x4) {
      lo_[c][x4] = mul_[c][x4];
      hi_[c][x4] = mul_[c][x4 << 4];
    }
  }

  // Affine matrices derive from the products of the basis bytes 2^j:
  // c * x is the XOR of c * 2^j over x's set bits j.
  for (std::size_t c = 0; c < 256; ++c) {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      std::uint64_t row = 0;
      for (std::size_t j = 0; j < 8; ++j) {
        const std::uint64_t bit = (mul_[c][std::size_t{1} << j] >> i) & 1;
        row |= bit << j;
      }
      m |= row << (8 * (7 - i));
    }
    affine_[c] = m;
  }
}

const Tables& tables() {
  static const Tables t;
  return t;
}

namespace {

// ----------------------------------------------------------- scalar set

void mul_slice_scalar(std::uint8_t c, const std::uint8_t* src,
                      std::uint8_t* dst, std::size_t n) {
  const auto& row = tables().mul_[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

void mul_add_slice_scalar(std::uint8_t c, const std::uint8_t* src,
                          std::uint8_t* dst, std::size_t n) {
  const auto& row = tables().mul_[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void xor_slice_scalar(const std::uint8_t* src, std::uint8_t* dst,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

void mul_rows_scalar(const std::uint8_t* coeffs,
                     const std::uint8_t* const* srcs, std::size_t nsrc,
                     std::uint8_t* const* outs, std::size_t nrows,
                     std::size_t n) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::uint8_t* row = coeffs + r * nsrc;
    mul_slice_scalar(row[0], srcs[0], outs[r], n);
    for (std::size_t j = 1; j < nsrc; ++j) {
      mul_add_slice_scalar(row[j], srcs[j], outs[r], n);
    }
  }
}

// ------------------------------------------------- portable 64-bit set
//
// Still table lookups per byte, but eight products are composed into one
// 64-bit word so loads/stores (and the dst read-modify-write) happen
// word-at-a-time. This is the fallback when no SIMD unit is available.

inline std::uint64_t mul_word(const std::array<std::uint8_t, 256>& row,
                              std::uint64_t s) {
  return static_cast<std::uint64_t>(row[s & 0xFF]) |
         static_cast<std::uint64_t>(row[(s >> 8) & 0xFF]) << 8 |
         static_cast<std::uint64_t>(row[(s >> 16) & 0xFF]) << 16 |
         static_cast<std::uint64_t>(row[(s >> 24) & 0xFF]) << 24 |
         static_cast<std::uint64_t>(row[(s >> 32) & 0xFF]) << 32 |
         static_cast<std::uint64_t>(row[(s >> 40) & 0xFF]) << 40 |
         static_cast<std::uint64_t>(row[(s >> 48) & 0xFF]) << 48 |
         static_cast<std::uint64_t>(row[(s >> 56) & 0xFF]) << 56;
}

void mul_slice_portable(std::uint8_t c, const std::uint8_t* src,
                        std::uint8_t* dst, std::size_t n) {
  const auto& row = tables().mul_[c];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t s;
    std::memcpy(&s, src + i, 8);
    const std::uint64_t v = mul_word(row, s);
    std::memcpy(dst + i, &v, 8);
  }
  for (; i < n; ++i) dst[i] = row[src[i]];
}

void mul_add_slice_portable(std::uint8_t c, const std::uint8_t* src,
                            std::uint8_t* dst, std::size_t n) {
  const auto& row = tables().mul_[c];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t s, d;
    std::memcpy(&s, src + i, 8);
    std::memcpy(&d, dst + i, 8);
    d ^= mul_word(row, s);
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

void xor_slice_portable(const std::uint8_t* src, std::uint8_t* dst,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint64_t s[4], d[4];
    std::memcpy(s, src + i, 32);
    std::memcpy(d, dst + i, 32);
    d[0] ^= s[0];
    d[1] ^= s[1];
    d[2] ^= s[2];
    d[3] ^= s[3];
    std::memcpy(dst + i, d, 32);
  }
  for (; i + 8 <= n; i += 8) {
    std::uint64_t s, d;
    std::memcpy(&s, src + i, 8);
    std::memcpy(&d, dst + i, 8);
    d ^= s;
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void mul_rows_portable(const std::uint8_t* coeffs,
                       const std::uint8_t* const* srcs, std::size_t nsrc,
                       std::uint8_t* const* outs, std::size_t nrows,
                       std::size_t n) {
  const auto& mul = tables().mul_;
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::uint8_t* row = coeffs + r * nsrc;
    std::uint8_t* out = outs[r];
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t d = 0;
      for (std::size_t j = 0; j < nsrc; ++j) {
        std::uint64_t s;
        std::memcpy(&s, srcs[j] + i, 8);
        d ^= mul_word(mul[row[j]], s);
      }
      std::memcpy(out + i, &d, 8);
    }
    for (; i < n; ++i) {
      std::uint8_t b = 0;
      for (std::size_t j = 0; j < nsrc; ++j) b ^= mul[row[j]][srcs[j][i]];
      out[i] = b;
    }
  }
}

}  // namespace

const KernelTable kScalarKernels{mul_slice_scalar, mul_add_slice_scalar,
                                 xor_slice_scalar, mul_rows_scalar};
const KernelTable kPortable64Kernels{mul_slice_portable,
                                     mul_add_slice_portable,
                                     xor_slice_portable, mul_rows_portable};

}  // namespace detail

// ----------------------------------------------------------- field scalars

namespace {

/// Reduce an exponent modulo 255 without division: 256 == 1 (mod 255), so
/// folding the high byte onto the low byte preserves the residue. Converges
/// to < 510 in a handful of iterations, which the 512-entry antilog table
/// indexes directly.
inline std::uint64_t fold255(std::uint64_t n) {
  while (n >= 510) n = (n >> 8) + (n & 0xFF);
  return n;
}

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  return detail::tables().mul_[a][b];
}

std::uint8_t div(std::uint8_t a, std::uint8_t b) {
  if (b == 0) throw std::domain_error("gf256: division by zero");
  if (a == 0) return 0;
  const auto& t = detail::tables();
  const int diff = static_cast<int>(t.log_[a]) - static_cast<int>(t.log_[b]);
  return t.exp_[static_cast<std::size_t>(diff < 0 ? diff + 255 : diff)];
}

std::uint8_t inv(std::uint8_t a) {
  if (a == 0) throw std::domain_error("gf256: inverse of zero");
  const auto& t = detail::tables();
  return t.exp_[static_cast<std::size_t>(255 - t.log_[a])];
}

std::uint8_t pow(std::uint8_t a, unsigned n) {
  if (n == 0) return 1;
  if (a == 0) return 0;
  const auto& t = detail::tables();
  const std::uint64_t e =
      static_cast<std::uint64_t>(t.log_[a]) * fold255(n);
  return t.exp_[fold255(e)];
}

std::uint8_t exp(unsigned n) { return detail::tables().exp_[fold255(n)]; }

std::uint8_t log(std::uint8_t a) {
  if (a == 0) throw std::domain_error("gf256: log of zero");
  return detail::tables().log_[a];
}

// -------------------------------------------------------------- dispatch

namespace {

const detail::KernelTable* backend_table(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return &detail::kScalarKernels;
    case Backend::kPortable64:
      return &detail::kPortable64Kernels;
    case Backend::kSsse3:
      return detail::ssse3_kernels();
    case Backend::kAvx2:
      return detail::avx2_kernels();
    case Backend::kGfni:
      return detail::gfni_kernels();
  }
  return nullptr;
}

Backend best_backend() {
  if (detail::gfni_kernels() != nullptr) return Backend::kGfni;
  if (detail::avx2_kernels() != nullptr) return Backend::kAvx2;
  if (detail::ssse3_kernels() != nullptr) return Backend::kSsse3;
  return Backend::kPortable64;
}

struct Dispatch {
  Backend backend;
  const detail::KernelTable* table;
};

Dispatch& dispatch() {
  // agar-lint: global-ok(runtime kernel dispatch; every backend computes
  // identical bytes, and set_backend re-pinning is test/bench-only)
  static Dispatch d{best_backend(), backend_table(best_backend())};
  return d;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kPortable64:
      return "portable64";
    case Backend::kSsse3:
      return "ssse3";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kGfni:
      return "gfni";
  }
  return "unknown";
}

bool backend_supported(Backend b) { return backend_table(b) != nullptr; }

std::vector<Backend> supported_backends() {
  std::vector<Backend> out;
  for (const Backend b : {Backend::kScalar, Backend::kPortable64,
                          Backend::kSsse3, Backend::kAvx2, Backend::kGfni}) {
    if (backend_supported(b)) out.push_back(b);
  }
  return out;
}

Backend active_backend() { return dispatch().backend; }

bool set_backend(Backend b) {
  const detail::KernelTable* table = backend_table(b);
  if (table == nullptr) return false;
  dispatch() = Dispatch{b, table};
  return true;
}

void reset_backend() { (void)set_backend(best_backend()); }

// ---------------------------------------------------------- bulk wrappers

void mul_slice(std::uint8_t c, std::span<const std::uint8_t> src,
               std::span<std::uint8_t> dst) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("gf256: mul_slice size mismatch");
  }
  if (dst.empty()) return;
  if (c == 0) {
    std::memset(dst.data(), 0, dst.size());
    return;
  }
  if (c == 1) {
    if (src.data() != dst.data()) {
      std::memcpy(dst.data(), src.data(), dst.size());
    }
    return;
  }
  dispatch().table->mul_slice(c, src.data(), dst.data(), dst.size());
}

void mul_add_slice(std::uint8_t c, std::span<const std::uint8_t> src,
                   std::span<std::uint8_t> dst) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("gf256: mul_add_slice size mismatch");
  }
  if (dst.empty() || c == 0) return;
  if (c == 1) {
    dispatch().table->xor_slice(src.data(), dst.data(), dst.size());
    return;
  }
  dispatch().table->mul_add_slice(c, src.data(), dst.data(), dst.size());
}

void xor_slice(std::span<const std::uint8_t> src,
               std::span<std::uint8_t> dst) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("gf256: xor_slice size mismatch");
  }
  if (dst.empty()) return;
  dispatch().table->xor_slice(src.data(), dst.data(), dst.size());
}

void mul_rows(std::span<const std::uint8_t> coeffs,
              std::span<const std::span<const std::uint8_t>> srcs,
              std::span<const std::span<std::uint8_t>> outs) {
  if (coeffs.size() != outs.size() * srcs.size()) {
    throw std::invalid_argument("gf256: mul_rows coefficient count mismatch");
  }
  if (outs.empty()) return;
  const std::size_t n = outs.front().size();
  for (const auto& o : outs) {
    if (o.size() != n) {
      throw std::invalid_argument("gf256: mul_rows size mismatch");
    }
  }
  for (const auto& s : srcs) {
    if (s.size() != n) {
      throw std::invalid_argument("gf256: mul_rows size mismatch");
    }
  }
  if (n == 0) return;
  if (srcs.empty()) {
    for (const auto& o : outs) std::memset(o.data(), 0, n);
    return;
  }

  // Kernels take raw source pointers; stage them inline for codes up to
  // kMaxInline wide so the decode path allocates nothing.
  constexpr std::size_t kMaxInline = 32;
  const std::uint8_t* src_buf[kMaxInline];
  std::vector<const std::uint8_t*> src_heap;
  const std::uint8_t** ss = src_buf;
  if (srcs.size() > kMaxInline) {
    src_heap.resize(srcs.size());
    ss = src_heap.data();
  }
  for (std::size_t j = 0; j < srcs.size(); ++j) ss[j] = srcs[j].data();

  const detail::KernelTable& table = *dispatch().table;
  for (std::size_t first = 0; first < outs.size();
       first += detail::kMaxRowsPerPass) {
    const std::size_t nrows =
        std::min(detail::kMaxRowsPerPass, outs.size() - first);
    std::uint8_t* group[detail::kMaxRowsPerPass];
    for (std::size_t r = 0; r < nrows; ++r) group[r] = outs[first + r].data();
    table.mul_rows(coeffs.data() + first * srcs.size(), ss, srcs.size(),
                   group, nrows, n);
  }
}

}  // namespace agar::gf
