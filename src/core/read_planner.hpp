// Read planning for a configured cache: resolve every chunk of one read to
// a source.
//
// Used by AgarNode, which serves both periodic systems: Agar (knapsack
// planner) and the paper's LFU-c baseline (one option weight c, ranked by
// popularity). Both share the request proxy, latency estimates, static
// configured cache and this planner, so the systems being compared differ
// ONLY in their configuration policy. The plan runs through
// client::ReadStrategy::start_plan, as the backend and fixed-chunks
// systems' plans do.
#pragma once

#include <functional>

#include "cache/static_cache.hpp"
#include "core/region_manager.hpp"
#include "store/backend.hpp"

namespace agar::core {

/// Where each chunk of a read comes from. All `from_cache` and
/// `from_backend` fetches happen in parallel on the latency path;
/// `async_populate` fetches and the `populate_after_read` write-backs are
/// off-path (the prototype's client performs them on a thread pool).
struct ReadPlan {
  std::vector<ChunkIndex> from_cache;
  std::vector<std::pair<ChunkIndex, RegionId>> from_backend;
  std::vector<std::pair<ChunkIndex, RegionId>> async_populate;
  std::vector<ChunkIndex> populate_after_read;
  double monitor_overhead_ms = 0.0;

  [[nodiscard]] std::size_t chunks_on_path() const {
    return from_cache.size() + from_backend.size();
  }
};

/// Predicate: is chunk `index` of `key` part of the current configuration?
/// (The key-string adapter's form of the configured mask.)
using ConfiguredChunkFn = std::function<bool(const ObjectKey&, ChunkIndex)>;

/// Build the plan for one read of `id`, whose configured chunks are the
/// set bits of `configured`:
///   * resident chunks come from the cache (up to k);
///   * the remainder fills with the cheapest backend regions per the
///     region manager's live latency estimates;
///   * configured chunks that were fetched on-path are written back after
///     the read; configured chunks neither resident nor fetched are
///     downloaded asynchronously by the population pool.
[[nodiscard]] ReadPlan plan_chunk_sources(const store::BackendCluster& backend,
                                          const RegionManager& region_manager,
                                          const cache::StaticConfigCache& cache,
                                          ChunkMask configured, ObjectId id);

/// Key-string adapter: resolves `key` (std::out_of_range if unknown) and
/// `configured` into the mask, then plans on ids.
[[nodiscard]] ReadPlan plan_chunk_sources(const store::BackendCluster& backend,
                                          const RegionManager& region_manager,
                                          const cache::StaticConfigCache& cache,
                                          const ConfiguredChunkFn& configured,
                                          const ObjectKey& key);

}  // namespace agar::core
