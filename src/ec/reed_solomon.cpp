#include "ec/reed_solomon.hpp"

#include <algorithm>
#include <bitset>
#include <stdexcept>

#include "gf/gf256.hpp"

namespace agar::ec {

namespace {

void check_uniform_size(const std::vector<BytesView>& chunks) {
  if (chunks.empty()) return;
  const std::size_t size = chunks.front().size();
  for (const auto& c : chunks) {
    if (c.size() != size) {
      throw std::invalid_argument("ReedSolomon: ragged chunk sizes");
    }
  }
}

}  // namespace

ReedSolomon::ReedSolomon(CodecParams params) : params_(params) {
  if (params_.k == 0) {
    throw std::invalid_argument("ReedSolomon: k must be positive");
  }
  if (params_.total() > gf::kFieldSize) {
    throw std::invalid_argument("ReedSolomon: k + m must be <= 256");
  }
  encode_ = params_.kind == MatrixKind::kCauchy
                ? systematic_cauchy(params_.k, params_.m)
                : systematic_vandermonde(params_.k, params_.m);
}

void ReedSolomon::apply_row(const Matrix& matrix, std::size_t row,
                            std::span<const BytesView> inputs,
                            BytesSpan out) const {
  // The first column initializes `out` outright (mul_slice writes every
  // byte, so no separate zero-fill pass over the buffer); the remaining
  // columns accumulate through the fused kernel — one pass over `out`.
  gf::mul_slice(matrix.at(row, 0), inputs[0], out);
  gf::mul_add_multi(
      std::span<const std::uint8_t>(matrix.row(row) + 1, inputs.size() - 1),
      std::span<const BytesView>(inputs.data() + 1, inputs.size() - 1), out);
}

std::vector<Bytes> ReedSolomon::encode(
    const std::vector<BytesView>& data_chunks) const {
  if (data_chunks.size() != params_.k) {
    throw std::invalid_argument("ReedSolomon::encode: need exactly k chunks");
  }
  check_uniform_size(data_chunks);
  const std::size_t chunk_size = data_chunks.front().size();

  std::vector<Bytes> parity(params_.m, Bytes(chunk_size));
  for (std::size_t p = 0; p < params_.m; ++p) {
    apply_row(encode_, params_.k + p, data_chunks, BytesSpan(parity[p]));
  }
  return parity;
}

const Matrix& ReedSolomon::decode_plan(
    const std::vector<std::size_t>& rows) const {
  if (params_.total() > 64) {
    // Row set doesn't fit a 64-bit mask; invert per call (codes this wide
    // are outside every experiment in the repo).
    plan_scratch_ = encode_.select_rows(rows).inverted();
    ++plan_misses_;
    return plan_scratch_;
  }
  std::uint64_t mask = 0;
  for (const std::size_t r : rows) mask |= std::uint64_t{1} << r;
  const auto it = plan_cache_.find(mask);
  if (it != plan_cache_.end()) {
    ++plan_hits_;
    return it->second;
  }
  ++plan_misses_;
  if (plan_cache_.size() >= kMaxCachedPlans) {
    // Wide codes (total() up to 64) can have astronomically many erasure
    // patterns; stop memoizing rather than grow without bound. The paper's
    // RS(9,3) tops out at 219 cached plans, far under the cap.
    plan_scratch_ = encode_.select_rows(rows).inverted();
    return plan_scratch_;
  }
  return plan_cache_.emplace(mask, encode_.select_rows(rows).inverted())
      .first->second;
}

std::span<const BytesView> ReedSolomon::reconstruct_data_views(
    std::span<const std::pair<std::uint32_t, BytesView>> available,
    DecodeScratch& scratch) const {
  const std::size_t k = params_.k;
  if (available.size() < k) {
    throw std::invalid_argument(
        "ReedSolomon::reconstruct_data: fewer than k chunks available");
  }

  // Take the first k distinct chunks, preferring data chunks (identity rows)
  // so the common no-failure path does no GF work at all.
  auto& picked = scratch.picked;
  picked.clear();
  std::bitset<gf::kFieldSize> seen;  // total() <= 256, checked at construction
  auto take = [&](bool data_only) {
    for (const auto& [idx, bytes] : available) {
      if (picked.size() == k) break;
      if (idx >= params_.total()) {
        throw std::invalid_argument(
            "ReedSolomon::reconstruct_data: chunk index out of range");
      }
      const bool is_data = idx < k;
      if (data_only != is_data || seen.test(idx)) continue;
      seen.set(idx);
      picked.emplace_back(idx, bytes);
    }
  };
  take(/*data_only=*/true);
  take(/*data_only=*/false);
  if (picked.size() < k) {
    throw std::invalid_argument(
        "ReedSolomon::reconstruct_data: fewer than k distinct chunks");
  }

  // Canonical order: the decode plan is keyed by the chunk *set*, so the
  // picked rows must map to matrix columns the same way regardless of the
  // order `available` arrived in. GF arithmetic is exact — row order never
  // changes the reconstructed bytes.
  std::sort(picked.begin(), picked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  scratch.inputs.clear();
  for (const auto& [idx, bytes] : picked) scratch.inputs.push_back(bytes);
  check_uniform_size(scratch.inputs);
  const std::size_t chunk_size = scratch.inputs.front().size();

  // Present data chunks are their own reconstruction.
  scratch.data.assign(k, BytesView{});
  for (const auto& [idx, bytes] : picked) {
    if (idx < k) scratch.data[idx] = bytes;
  }
  if (picked.back().first < k) return scratch.data;  // no data row erased

  // General path: rows of the encoding matrix for the picked chunks form an
  // invertible k x k matrix (MDS); its inverse maps picked chunks back to
  // the original data chunks. The inverse is memoized per surviving set.
  scratch.rows.clear();
  for (const auto& [idx, bytes] : picked) scratch.rows.push_back(idx);
  const Matrix& decode = decode_plan(scratch.rows);

  // The decode row of a present data chunk is a unit vector selecting that
  // chunk, so only the erased rows need GF work. At most min(k, m) rows can
  // be erased; sizing for that keeps the slots' addresses stable across
  // erasure patterns.
  const std::size_t slots = std::min(k, params_.m) * chunk_size;
  if (scratch.erased.size() < slots) scratch.erased.resize(slots);
  std::uint8_t* slot = scratch.erased.data();
  for (std::size_t d = 0; d < k; ++d) {
    if (seen.test(d)) continue;  // picked, so present
    const BytesSpan out(slot, chunk_size);
    apply_row(decode, d, scratch.inputs, out);
    scratch.data[d] = out;
    slot += chunk_size;
  }
  return scratch.data;
}

std::vector<Bytes> ReedSolomon::reconstruct_data(
    const std::vector<std::pair<std::uint32_t, BytesView>>& available) const {
  DecodeScratch scratch;
  std::vector<Bytes> out;
  out.reserve(params_.k);
  for (const BytesView d : reconstruct_data_views(available, scratch)) {
    out.emplace_back(d.begin(), d.end());
  }
  return out;
}

Bytes ReedSolomon::reconstruct_chunk(
    std::uint32_t target,
    const std::vector<std::pair<std::uint32_t, BytesView>>& available) const {
  if (target >= params_.total()) {
    throw std::invalid_argument(
        "ReedSolomon::reconstruct_chunk: target out of range");
  }
  // If the chunk is already available, return it directly.
  for (const auto& [idx, bytes] : available) {
    if (idx == target) return Bytes(bytes.begin(), bytes.end());
  }
  DecodeScratch scratch;
  const std::span<const BytesView> data =
      reconstruct_data_views(available, scratch);
  if (target < params_.k) {
    return Bytes(data[target].begin(), data[target].end());
  }

  Bytes out(data.front().size());
  apply_row(encode_, target, data, BytesSpan(out));
  return out;
}

}  // namespace agar::ec
