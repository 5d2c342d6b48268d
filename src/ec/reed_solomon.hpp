// Systematic Reed-Solomon erasure codec over GF(2^8).
//
// RS(k, m) splits a stripe into k equally sized data chunks and computes m
// parity chunks; ANY k of the k+m chunks reconstruct the stripe (the MDS
// property). This is the same contract as Longhair, the Cauchy Reed-Solomon
// library the paper's prototype used.
//
// Hot-path structure: every matrix application — encode's m parity rows,
// a reconstruction's erased data rows, a repaired chunk's row — is one
// apply_rows call into gf::mul_rows, which computes up to four output rows
// per pass over the k inputs (GFNI affine or split-nibble SIMD kernels),
// and reconstruction memoizes the inverted decode matrix per surviving-chunk
// set — RS(9,3) has at most C(12,9) = 220 such sets, so after warm-up a
// degraded read pays zero matrix-inversion cost. Apart from that cache
// (single-threaded use, like the rest of the simulation) the codec is
// stateless, so one instance can be shared by every region.
//
// Reconstruction has one path, reconstruct_data_views: data chunks that are
// present come back as zero-copy views and only the erased data rows are
// rebuilt, into a caller-owned DecodeScratch that is reused across calls.
// reconstruct_data / reconstruct_chunk are owning wrappers over it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "ec/matrix.hpp"

namespace agar::ec {

/// Which matrix construction backs the code. Both are MDS; Cauchy matrices
/// are invertible-by-construction, Vandermonde mirrors classic RS papers.
enum class MatrixKind { kVandermonde, kCauchy };

struct CodecParams {
  std::size_t k = 9;  ///< data chunks (paper default)
  std::size_t m = 3;  ///< parity chunks (paper default)
  MatrixKind kind = MatrixKind::kCauchy;

  [[nodiscard]] std::size_t total() const { return k + m; }
};

/// Caller-owned working memory for ReedSolomon::reconstruct_data_views,
/// reused across calls: once it has seen the largest chunk size, a stream
/// of reconstructions allocates nothing. Not shareable between threads.
struct DecodeScratch {
  /// Input staging for callers that hold chunks in another shape
  /// (ObjectCodec::data_views); the codec itself only reads its argument.
  std::vector<std::pair<std::uint32_t, BytesView>> available;
  std::vector<std::pair<std::uint32_t, BytesView>> picked;
  std::vector<BytesView> inputs;  ///< picked chunk bytes, canonical order
  std::vector<std::size_t> rows;  ///< picked chunk indices (decode plan key)
  std::vector<BytesView> data;    ///< result: views of the k data chunks
  Bytes erased;                   ///< rebuilt data rows, one chunk apart
  std::vector<std::size_t> erased_rows;  ///< decode rows rebuilt this call
  std::vector<BytesSpan> outs;    ///< their slots in `erased`
};

class ReedSolomon {
 public:
  explicit ReedSolomon(CodecParams params);

  [[nodiscard]] std::size_t k() const { return params_.k; }
  [[nodiscard]] std::size_t m() const { return params_.m; }
  [[nodiscard]] std::size_t total() const { return params_.total(); }
  [[nodiscard]] const Matrix& encoding_matrix() const { return encode_; }

  /// Encode k data chunks (all the same size) into m parity chunks.
  /// Throws std::invalid_argument on wrong count or ragged sizes.
  [[nodiscard]] std::vector<Bytes> encode(
      const std::vector<BytesView>& data_chunks) const;

  /// Views of the k original data chunks, from any k (or more) available
  /// chunks. `available[i]` pairs a chunk index in [0, k+m) with its bytes.
  /// A data chunk present in `available` is returned as a view of those
  /// bytes (no copy); an erased data row is rebuilt from the memoized
  /// decode plan into `scratch`. The views are valid until `scratch` is
  /// reused and while the `available` bytes live.
  /// Throws std::invalid_argument if fewer than k chunks are supplied,
  /// indices repeat, or sizes are ragged.
  [[nodiscard]] std::span<const BytesView> reconstruct_data_views(
      std::span<const std::pair<std::uint32_t, BytesView>> available,
      DecodeScratch& scratch) const;

  /// Owning copy of reconstruct_data_views (same contract and throws).
  [[nodiscard]] std::vector<Bytes> reconstruct_data(
      const std::vector<std::pair<std::uint32_t, BytesView>>& available) const;

  /// Reconstruct one specific chunk (data or parity) from any k available
  /// chunks. Used by repair paths and tests.
  [[nodiscard]] Bytes reconstruct_chunk(
      std::uint32_t target,
      const std::vector<std::pair<std::uint32_t, BytesView>>& available) const;

  // ---------------------------------------------- decode-plan cache stats
  /// Reconstructions that found their inverted decode matrix memoized.
  [[nodiscard]] std::uint64_t decode_plan_hits() const { return plan_hits_; }
  /// Reconstructions that had to invert (and then memoized the result).
  [[nodiscard]] std::uint64_t decode_plan_misses() const {
    return plan_misses_;
  }
  [[nodiscard]] std::size_t decode_plan_cache_size() const {
    return plan_cache_.size();
  }
  /// Drop memoized plans (benchmarks measuring the cold path).
  void clear_decode_plan_cache() const { plan_cache_.clear(); }

 private:
  /// outs[e] = sum_j matrix[rows[e]][j] * inputs[j] for every e, all rows
  /// in one gf::mul_rows call. The one row-apply path of the codec.
  void apply_rows(const Matrix& matrix, std::span<const std::size_t> rows,
                  std::span<const BytesView> inputs,
                  std::span<const BytesSpan> outs) const;

  /// Inverted decode matrix for this exact (sorted, distinct) row set,
  /// served from the plan cache when the row set fits a 64-bit mask.
  [[nodiscard]] const Matrix& decode_plan(
      const std::vector<std::size_t>& rows) const;

  CodecParams params_;
  Matrix encode_;  // (k+m) x k, top square == identity.

  // Memoized inverted decode matrices keyed by the surviving-row bitmask.
  // Mutable: reconstruction is logically const. Single-threaded by design
  // (the simulation drives everything from one event loop). Bounded: once
  // kMaxCachedPlans distinct patterns are cached, further ones invert
  // without memoizing (only reachable by codes far wider than the paper's).
  static constexpr std::size_t kMaxCachedPlans = 4096;
  mutable std::unordered_map<std::uint64_t, Matrix> plan_cache_;
  mutable Matrix plan_scratch_;  // fallback when total() > 64 (uncacheable)
  mutable std::uint64_t plan_hits_ = 0;
  mutable std::uint64_t plan_misses_ = 0;
};

}  // namespace agar::ec
