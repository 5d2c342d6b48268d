#include "client/agar_strategy.hpp"

#include <algorithm>
#include <memory>

#include "api/registry.hpp"
#include "client/backend_strategy.hpp"
#include "client/runner.hpp"
#include "collab/collab.hpp"

namespace agar::client {

namespace {

/// The node wiring both periodic systems share.
core::AgarNodeParams node_params(const api::StrategyContext& ctx,
                                 const api::ParamMap& params) {
  core::AgarNodeParams p;
  p.region = ctx.client->region;
  p.cache_capacity_bytes = params.get_size("cache_bytes", 10_MB);
  p.reconfig_period_ms = ctx.experiment->reconfig_period_ms;
  p.cache_manager.cache_latency_ms =
      ctx.deployment->network().model().params().cache_base_ms;
  return p;
}

const api::StrategyRegistration kAgar{{
    "agar",
    "Agar",
    "knapsack-optimized chunk caching with periodic reconfiguration "
    "(the paper's system)",
    api::ParamSchema{{
        {"cache_bytes", api::ParamType::kSize, "10MB", "cache capacity"},
        {"probes_per_region", api::ParamType::kSize, "6",
         "latency probes per region per warm-up/reconfiguration"},
        {"planner", api::ParamType::kString, "knapsack-dp",
         "planner registry entry solving each reconfiguration "
         "(planner.<param> passes planner-specific knobs)"},
        {"monitor", api::ParamType::kString, "exact-ewma",
         "popularity-estimator registry entry behind the request monitor "
         "(monitor.<param> passes estimator-specific knobs)"},
    }},
    [](const api::StrategyContext& ctx, const api::ParamMap& params) {
      core::AgarNodeParams p = node_params(ctx, params);
      p.probes_per_region =
          params.get_size("probes_per_region", p.probes_per_region);
      p.cache_manager.candidate_weights =
          ctx.experiment->agar_candidate_weights;
      p.cache_manager.planner = params.get_string("planner", "knapsack-dp");
      p.cache_manager.planner_params = params.scoped("planner.");
      p.monitor.estimator = params.get_string("monitor", "exact-ewma");
      p.monitor.estimator_params = params.scoped("monitor.");
      return std::make_unique<AgarStrategy>(*ctx.client, p);
    },
    [](const api::ParamMap& params) {
      // Non-default control-plane picks show up in the label so planner /
      // estimator sweeps stay distinguishable in tables and JSON reports.
      std::string tags;
      const auto planner = params.get_string("planner", "knapsack-dp");
      const auto monitor = params.get_string("monitor", "exact-ewma");
      if (planner != "knapsack-dp") tags += planner;
      if (monitor != "exact-ewma") tags += (tags.empty() ? "" : ",") + monitor;
      return tags.empty() ? std::string("Agar") : "Agar[" + tags + "]";
    }}};

// The paper's LFU-c baseline (§V-A): a cache holding "a predefined number
// of erasure-coded chunks" per object, behind "an additional proxy
// component that tracks request frequency", reconfigured on Agar's period.
// That is Agar without the knapsack — the same node with the single
// candidate weight c and the popularity-rank planner — so the two systems
// differ only in their configuration policy. (The eviction-driven LFU
// engine is the separate "lfu-eviction" system.)
const api::StrategyRegistration kLfu{{
    "lfu",
    "LFU",
    "the paper's LFU baseline: frequency proxy + periodic static "
    "configuration of c chunks per object",
    api::ParamSchema{{
        {"chunks", api::ParamType::kSize, "9", "chunks cached per object"},
        {"cache_bytes", api::ParamType::kSize, "10MB", "cache capacity"},
        {"ewma_alpha", api::ParamType::kDouble, "0.8",
         "request-frequency EWMA smoothing"},
        {"proxy_ms", api::ParamType::kDouble, "0.5",
         "frequency-tracking proxy cost on the read path"},
    }},
    [](const api::StrategyContext& ctx, const api::ParamMap& params) {
      core::AgarNodeParams p = node_params(ctx, params);
      // c = 0 is no option weight: the node's option generator throws here.
      p.cache_manager.candidate_weights = {std::min(
          params.get_size("chunks", 9), ctx.client->backend->codec().k())};
      p.cache_manager.planner = "popularity-rank";
      p.monitor.ewma_alpha = params.get_double("ewma_alpha", 0.8);
      p.monitor.processing_ms = params.get_double("proxy_ms", 0.5);
      return std::make_unique<AgarStrategy>(*ctx.client, p);
    },
    [](const api::ParamMap& params) {
      return "LFU-" + std::to_string(params.get_size("chunks", 9));
    }}};

}  // namespace

AgarStrategy::AgarStrategy(ClientContext ctx, core::AgarNodeParams node_params)
    : ReadStrategy(ctx),
      node_(std::make_unique<core::AgarNode>(ctx.backend, ctx.network,
                                             node_params)) {}

void AgarStrategy::warm_up() { node_->warm_up(); }

void AgarStrategy::populate_configuration() {
  // Key order: each download's event sequence numbers follow it.
  for (const auto& [key, option] : node_->cache_manager().current().entries) {
    for (const ChunkIndex idx : option.chunks) {
      populate_chunk_async(option.object, idx, node_->cache());
    }
  }
}

void AgarStrategy::attach_to_loop(sim::EventLoop& loop) {
  ReadStrategy::attach_to_loop(loop);
  // Event-driven reconfiguration pipeline (shared with the node): a probe
  // round fires, and only once its fetches have landed is the
  // configuration recomputed and the population downloads started. The
  // reconfigure observer (collab config log) runs after the population
  // kicks off, with the installed configuration current.
  node_->attach_to_loop(loop, [this] {
    populate_configuration();
    if (on_reconfigure_) on_reconfigure_();
  });
}

collab::PeerInfo AgarStrategy::collab_info() {
  collab::PeerInfo info;
  info.region = node_->region();
  info.configured = node_->cache_manager().current().masks;
  info.popularity = node_->request_monitor().snapshot();
  return info;
}

void AgarStrategy::set_collab_hooks(const core::CollabPlannerHooks& hooks) {
  // planner.scope=global turns the per-region planner into one global
  // optimization: merged popularity snapshots and peer-aware chunk costs.
  // scope=region (the default) keeps planning local — the tier then only
  // contributes peer-fetch on the data path.
  if (node_->params().cache_manager.planner_params.get_string(
          "scope", "region") == "global") {
    node_->cache_manager().set_collab_hooks(hooks);
  }
}

void AgarStrategy::start_read(ObjectId id, ReadCallback done) {
  core::ReadPlan plan = node_->plan_read(id);
  start_plan(id, chunks_by_expected_latency(ctx_, id), std::move(plan),
             &node_->cache(), std::move(done));
}

}  // namespace agar::client
