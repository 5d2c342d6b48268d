#include "core/option_generator.hpp"

#include <algorithm>
#include <stdexcept>

namespace agar::core {

OptionGenerator::OptionGenerator(OptionGeneratorParams params)
    : params_(std::move(params)) {
  if (params_.k == 0) {
    throw std::invalid_argument("OptionGenerator: k must be positive");
  }
  if (params_.candidate_weights.empty()) {
    for (std::size_t w = 1; w <= params_.k; ++w) {
      params_.candidate_weights.push_back(w);
    }
  }
  for (const std::size_t w : params_.candidate_weights) {
    if (w == 0 || w > params_.k) {
      throw std::invalid_argument(
          "OptionGenerator: candidate weight out of [1, k]");
    }
  }
}

std::vector<CachingOption> OptionGenerator::generate(
    const ObjectKey& key, std::vector<ChunkCost> chunk_costs,
    double popularity) const {
  if (chunk_costs.size() != params_.k + params_.m) {
    throw std::invalid_argument(
        "OptionGenerator: need exactly k + m chunk costs");
  }

  // Sort most distant first; break latency ties by (region, index) so the
  // generated options are deterministic.
  std::sort(chunk_costs.begin(), chunk_costs.end(),
            [](const ChunkCost& a, const ChunkCost& b) {
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms > b.latency_ms;
              }
              if (a.region != b.region) return a.region > b.region;
              return a.index < b.index;
            });

  // Step 2: drop the m furthest — never fetched in the failure-free case.
  std::vector<ChunkCost> needed(chunk_costs.begin() + params_.m,
                                chunk_costs.end());

  // Latency with no chunks cached: the furthest needed chunk dominates
  // (the client fetches all k in parallel).
  const double uncached_ms = needed.front().latency_ms;

  std::vector<CachingOption> out;
  out.reserve(params_.candidate_weights.size());
  for (const std::size_t w : params_.candidate_weights) {
    CachingOption opt;
    opt.key = key;
    opt.weight = w;
    opt.weight_units = w;  // refined by the cache manager for mixed sizes
    opt.chunks.reserve(w);
    for (std::size_t i = 0; i < w; ++i) {
      opt.chunks.push_back(needed[i].index);
    }
    // Furthest region still contacted once the w most distant chunks are
    // cached; the local cache when everything needed is cached. A cache
    // fetch also happens for the cached chunks, so the floor is the cache
    // latency itself.
    const double residual_backend_ms =
        w < needed.size() ? needed[w].latency_ms : 0.0;
    const double after_ms =
        std::max(residual_backend_ms, params_.cache_latency_ms);
    opt.expected_latency_ms = after_ms;
    const double improvement = std::max(0.0, uncached_ms - after_ms);
    opt.value = popularity * improvement;
    opt.popularity = popularity;
    out.push_back(std::move(opt));
  }
  return out;
}

}  // namespace agar::core
