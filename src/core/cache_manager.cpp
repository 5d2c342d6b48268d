#include "core/cache_manager.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "api/registry.hpp"
#include "common/logging.hpp"

namespace agar::core {

bool CacheConfiguration::contains_chunk(const ObjectKey& key,
                                        ChunkIndex index) const {
  const auto it = entries.find(key);
  return it != entries.end() && contains_chunk(it->second.object, index);
}

std::map<std::size_t, std::size_t> CacheConfiguration::weight_histogram()
    const {
  std::map<std::size_t, std::size_t> hist;
  for (const auto& [key, opt] : entries) ++hist[opt.weight];
  return hist;
}

namespace {

OptionGeneratorParams generator_params(const store::BackendCluster* backend,
                                       const CacheManagerParams& params) {
  if (backend == nullptr) {
    throw std::invalid_argument("CacheManager: null dependency");
  }
  OptionGeneratorParams out;
  out.k = backend->codec().k();
  out.m = backend->codec().m();
  out.cache_latency_ms = params.cache_latency_ms;
  out.candidate_weights = params.candidate_weights;
  return out;
}

}  // namespace

CacheManager::CacheManager(const store::BackendCluster* backend,
                           RegionManager* region_manager,
                           RequestMonitor* request_monitor,
                           cache::StaticConfigCache* cache,
                           CacheManagerParams params)
    : backend_(backend),
      region_manager_(region_manager),
      request_monitor_(request_monitor),
      cache_(cache),
      params_(std::move(params)),
      generator_(generator_params(backend, params_)) {
  if (region_manager_ == nullptr || request_monitor_ == nullptr ||
      cache_ == nullptr) {
    throw std::invalid_argument("CacheManager: null dependency");
  }
  planner_ = api::PlannerRegistry::instance().create(
      params_.planner, api::PlannerContext{}, params_.planner_params);
}

std::size_t CacheManager::quantum_of(
    const PopularitySnapshot& snapshot) const {
  // Quantum: the smallest chunk size among tracked objects, so every
  // option's byte footprint maps to an integer number of units. With the
  // paper's uniform 1 MB objects this is exactly one chunk.
  std::size_t quantum = std::numeric_limits<std::size_t>::max();
  for (const auto& [id, pop] : snapshot) {
    quantum = std::min(quantum, backend_->chunk_size(id));
  }
  if (quantum == std::numeric_limits<std::size_t>::max()) quantum = 1;
  return std::max<std::size_t>(quantum, 1);
}

std::size_t CacheManager::weight_quantum_bytes() const {
  return quantum_of(request_monitor_->snapshot());
}

std::vector<std::vector<CachingOption>> CacheManager::generate_options()
    const {
  auto snapshot = request_monitor_->snapshot();
  const std::size_t quantum = quantum_of(snapshot);
  return options_for(std::move(snapshot), quantum);
}

std::vector<std::vector<CachingOption>> CacheManager::options_for(
    PopularitySnapshot snapshot, std::size_t quantum) const {
  // The snapshot is sorted by key (the estimator contract), so the option
  // groups — and thus the planner's input — are deterministic. At global
  // scope the collab tier merges the peers' broadcast snapshots in (still
  // key-sorted) and folds peer cache placements into each key's chunk
  // costs, turning the per-region knapsack into one global optimization.
  if (collab_hooks_.merge_popularity) {
    snapshot = collab_hooks_.merge_popularity(std::move(snapshot));
  }
  const store::ObjectTable& objects = backend_->objects();

  std::vector<std::vector<CachingOption>> groups;
  groups.reserve(snapshot.size());
  for (const auto& [id, popularity] : snapshot) {
    if (popularity <= 0.0) continue;
    auto costs = region_manager_->chunk_costs(id);
    if (collab_hooks_.adjust_chunk_costs) {
      costs = collab_hooks_.adjust_chunk_costs(std::move(costs), id);
    }
    auto options = generator_.generate(objects.key_of(id), std::move(costs),
                                       popularity);
    const std::size_t chunk_bytes = backend_->chunk_size(id);
    for (auto& opt : options) {
      opt.object = id;
      const double bytes =
          static_cast<double>(opt.weight) * static_cast<double>(chunk_bytes);
      opt.weight_units = static_cast<std::size_t>(
          std::ceil(bytes / static_cast<double>(quantum)));
    }
    groups.push_back(std::move(options));
  }
  return groups;
}

const CacheConfiguration& CacheManager::reconfigure() {
  ++reconfigs_;
  // Close the popularity period first so the snapshot reflects the EWMA
  // including the period that just ended (paper: the algorithm runs on the
  // statistics gathered over the last interval).
  request_monitor_->roll_period();

  // One snapshot serves the quantum and the option groups.
  auto snapshot = request_monitor_->snapshot();
  const std::size_t quantum = quantum_of(snapshot);
  const std::size_t capacity_units = cache_->capacity_bytes() / quantum;

  const auto groups = options_for(std::move(snapshot), quantum);
  const auto plan_start = std::chrono::steady_clock::now();
  KnapsackResult result = planner_->plan(groups, capacity_units);
  const double plan_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - plan_start)
          .count();

  // In key order, `entries` fills by appending: no tree search per key.
  const store::ObjectTable& objects = backend_->objects();
  std::sort(result.chosen.begin(), result.chosen.end(),
            [&objects](const CachingOption& a, const CachingOption& b) {
              return objects.key_less(a.object, b.object);
            });
  CacheConfiguration next;
  next.masks.assign(backend_->num_objects(), 0);
  for (auto& opt : result.chosen) {
    next.total_chunks += opt.weight;
    next.total_bytes += opt.weight * backend_->chunk_size(opt.object);
    for (const ChunkIndex idx : opt.chunks) {
      next.masks[opt.object] |= ChunkMask{1} << idx;
    }
    next.entries.emplace_hint(next.entries.end(), opt.key, std::move(opt));
  }
  next.total_value = result.total_value;

  // Configuration churn relative to the previous installation: chunks the
  // new plan adds (a-priori downloads ahead) and chunks it drops.
  std::uint64_t installed = 0;
  std::uint64_t evicted = 0;
  const std::size_t ids = std::max(next.masks.size(), config_.masks.size());
  for (std::size_t id = 0; id < ids; ++id) {
    const ChunkMask now = next.mask_of(static_cast<ObjectId>(id));
    const ChunkMask before = config_.mask_of(static_cast<ObjectId>(id));
    installed += static_cast<std::uint64_t>(std::popcount(now & ~before));
    evicted += static_cast<std::uint64_t>(std::popcount(before & ~now));
  }
  stats_.reconfigurations = reconfigs_;
  stats_.planning_ms += plan_ms;
  stats_.chunks_installed += installed;
  stats_.chunks_evicted += evicted;

  config_ = std::move(next);
  cache_->install_configuration(config_.masks);

  log_info("cache-manager") << "reconfiguration #" << reconfigs_ << " ("
                            << planner_->name() << ", " << plan_ms
                            << " ms): " << config_.entries.size()
                            << " objects, " << config_.total_chunks
                            << " chunks (+" << installed << "/-" << evicted
                            << "), value " << config_.total_value;
  return config_;
}

}  // namespace agar::core
