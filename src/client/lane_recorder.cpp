#include "client/lane_recorder.hpp"

#include <vector>

namespace agar::client {

void merge_lanes(std::span<const LaneView> lanes, RunResult& result) {
  std::vector<double> ewma_sum, ewma_weight;  // per region, across lanes
  for (const LaneView& lane : lanes) {
    const RunResult& p = lane.recorder->result();
    result.latencies.merge(p.latencies);
    result.ops += p.ops;
    result.full_hits += p.full_hits;
    result.partial_hits += p.partial_hits;
    result.verified += p.verified;
    result.failed_reads += p.failed_reads;
    result.degraded_reads += p.degraded_reads;
    result.duration_ms = std::max(result.duration_ms, p.duration_ms);
    result.max_reads_in_flight += p.max_reads_in_flight;

    const sim::Network& network = *lane.network;
    result.wire_fetches += network.wire_fetches();
    result.queued_fetches += network.queued_fetches();
    result.max_queue_depth =
        std::max(result.max_queue_depth, network.max_queue_depth());
    result.max_net_in_flight += network.max_in_flight();
    result.aborted_on_wire += network.aborted_on_wire();
    result.failed_in_queue += network.failed_in_queue();
    result.timed_out_fetches += network.timed_out();

    result.coalesced_fetches += lane.strategy->fetch_coordinator().coalesced();
    const core::ControlPlaneStats cp = lane.strategy->control_plane_stats();
    result.reconfigurations += cp.reconfigurations;
    result.planning_ms += cp.planning_ms;
    result.config_chunks_installed += cp.chunks_installed;
    result.config_chunks_evicted += cp.chunks_evicted;

    if (const FetchPolicy* policy = lane.strategy->fetch_policy()) {
      const FetchPolicyStats& fs = policy->stats();
      result.fetch_attempts += fs.attempts;
      result.fetch_timeouts += fs.timeouts;
      result.fetch_retries += fs.retries;
      result.hedges_issued += fs.hedges_issued;
      result.hedges_won += fs.hedges_won;
      result.hedges_wasted += fs.hedges_wasted;
      result.fetch_exhausted += fs.exhausted;
      if (ewma_sum.size() < policy->num_regions()) {
        ewma_sum.resize(policy->num_regions(), 0.0);
        ewma_weight.resize(policy->num_regions(), 0.0);
      }
      // Sample-weighted merge: a lane that fetched more from a region
      // moves that region's merged health estimate more.
      for (RegionId r = 0; r < policy->num_regions(); ++r) {
        const auto w = static_cast<double>(policy->region_samples(r));
        ewma_sum[r] += w * policy->region_success_ewma(r);
        ewma_weight[r] += w;
      }
    }

    result.decode_plan_hits += lane.codec->rs().decode_plan_hits();
    result.decode_plan_misses += lane.codec->rs().decode_plan_misses();
  }
  // Empty when no lane ran a fetch policy. A region with no samples
  // anywhere reports the EWMA's healthy prior.
  for (std::size_t r = 0; r < ewma_sum.size(); ++r) {
    result.region_success_ewma.push_back(
        ewma_weight[r] > 0.0 ? ewma_sum[r] / ewma_weight[r] : 1.0);
  }

  // Final snapshots through the observability hooks every strategy exposes
  // (primary lane's strategy) — no knowledge of concrete strategy types.
  const ReadStrategy& primary = *lanes.front().strategy;
  if (const cache::CacheEngine* cache_engine = primary.cache_engine()) {
    result.cache_stats = cache_engine->stats();
    result.cache_used_bytes = cache_engine->used_bytes();
  }
  result.weight_histogram = primary.config_weight_histogram();
}

}  // namespace agar::client
