// An S3-like bucket: durable chunk storage for one region.
//
// Buckets store chunk payloads keyed by ChunkRef (object id + index) and
// keep simple counters so tests and reports can observe backend traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/shared_bytes.hpp"
#include "common/types.hpp"

namespace agar::store {

class Bucket {
 public:
  /// Store (or overwrite) one chunk. Accepts Bytes too (adopted by move).
  void put(const ChunkRef& id, SharedBytes data);

  /// Fetch a chunk payload; nullopt if absent. The returned handle shares
  /// the stored buffer (no copy) and stays valid past eviction/overwrite.
  [[nodiscard]] std::optional<SharedBytes> get(const ChunkRef& id) const;

  [[nodiscard]] bool contains(const ChunkRef& id) const;
  bool erase(const ChunkRef& id);

  [[nodiscard]] std::size_t num_chunks() const { return chunks_.size(); }
  [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }

  /// Observability counters. Atomic (relaxed): the chunk map itself is
  /// read-only during sharded runs, but several shard threads fetch
  /// concurrently and all bump these. Totals are order-independent, so
  /// they stay deterministic for any shard count.
  [[nodiscard]] std::uint64_t gets() const {
    return gets_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t puts() const {
    return puts_.load(std::memory_order_relaxed);
  }

 private:
  std::unordered_map<std::uint64_t, SharedBytes> chunks_;  // by packed()
  std::size_t total_bytes_ = 0;
  mutable std::atomic<std::uint64_t> gets_{0};
  std::atomic<std::uint64_t> puts_{0};
};

}  // namespace agar::store
