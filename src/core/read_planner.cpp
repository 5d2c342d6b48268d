#include "core/read_planner.hpp"

#include <algorithm>

namespace agar::core {

ReadPlan plan_chunk_sources(const store::BackendCluster& backend,
                            const RegionManager& region_manager,
                            const cache::StaticConfigCache& cache,
                            ChunkMask configured, ObjectId id) {
  ReadPlan plan;

  auto costs = region_manager.chunk_costs(id);
  // Cheapest-first order; deterministic tie-break.
  std::sort(costs.begin(), costs.end(),
            [](const ChunkCost& a, const ChunkCost& b) {
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms < b.latency_ms;
              }
              if (a.region != b.region) return a.region < b.region;
              return a.index < b.index;
            });
  const std::size_t k = backend.codec().k();
  const auto is_configured = [configured](ChunkIndex idx) {
    return ((configured >> idx) & 1U) != 0;
  };

  // Resident chunks come from the cache.
  std::vector<ChunkCost> not_resident;
  not_resident.reserve(costs.size());
  for (const auto& c : costs) {
    if (plan.from_cache.size() < k &&
        cache.contains(backend.chunk(id, c.index))) {
      plan.from_cache.push_back(c.index);
    } else {
      not_resident.push_back(c);
    }
  }

  // Fill to k chunks with the cheapest backend fetches.
  for (const auto& c : not_resident) {
    if (plan.from_cache.size() + plan.from_backend.size() >= k) break;
    plan.from_backend.emplace_back(c.index, c.region);
    // A fetched chunk the configuration wants cached is written back after
    // the read (asynchronously, off the latency path).
    if (is_configured(c.index)) plan.populate_after_read.push_back(c.index);
  }

  // Configured chunks that are neither resident nor fetched on-path are
  // downloaded a-priori by the population thread pool.
  for (const auto& c : not_resident) {
    if (!is_configured(c.index)) continue;
    const bool on_path =
        std::any_of(plan.from_backend.begin(), plan.from_backend.end(),
                    [&](const auto& p) { return p.first == c.index; });
    if (!on_path) plan.async_populate.emplace_back(c.index, c.region);
  }

  return plan;
}

ReadPlan plan_chunk_sources(const store::BackendCluster& backend,
                            const RegionManager& region_manager,
                            const cache::StaticConfigCache& cache,
                            const ConfiguredChunkFn& configured,
                            const ObjectKey& key) {
  const ObjectId id = backend.objects().id_of(key);
  ChunkMask mask = 0;
  for (ChunkIndex i = 0; i < backend.codec().rs().total(); ++i) {
    if (configured(key, i)) mask |= ChunkMask{1} << i;
  }
  return plan_chunk_sources(backend, region_manager, cache, mask, id);
}

}  // namespace agar::core
