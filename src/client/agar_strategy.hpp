// Agar strategy (paper §V-A "Agar", and the "lfu" system's LFU-c, which is
// the same node with one option weight and the popularity-rank planner):
// reads go through an AgarNode — the request monitor supplies hints,
// resident configured chunks come from the Agar cache, the rest from the
// backend; after the read the client populates the cache with the chunks
// the current configuration wants (asynchronously, off the latency path).
//
// On the event loop the whole control plane is background events: latency
// probes are asynchronous fetches, each reconfiguration waits for its probe
// round to land, and the a-priori population downloads go through the
// strategy's coalescing fetch table so they merge with concurrent reads.
#pragma once

#include <memory>

#include "client/strategy.hpp"
#include "core/agar_node.hpp"

namespace agar::client {

class AgarStrategy final : public ReadStrategy {
 public:
  AgarStrategy(ClientContext ctx, core::AgarNodeParams node_params);

  void start_read(ObjectId id, ReadCallback done) override;

  void warm_up() override;
  void attach_to_loop(sim::EventLoop& loop) override;

  [[nodiscard]] core::AgarNode& node() { return *node_; }

  [[nodiscard]] const cache::CacheEngine* cache_engine() const override {
    return &node_->cache();
  }
  [[nodiscard]] std::map<std::size_t, std::size_t> config_weight_histogram()
      const override {
    return node_->cache_manager().current().weight_histogram();
  }
  [[nodiscard]] core::ControlPlaneStats control_plane_stats() const override {
    return node_->cache_manager().control_plane_stats();
  }

  /// Broadcastable cache state for the cooperative tier (configured chunk
  /// masks + popularity snapshot — the paper's §VI broadcast).
  [[nodiscard]] collab::PeerInfo collab_info() override;

  /// Forward the cooperative-planning hooks to the cache manager when the
  /// planner runs at global scope (planner.scope=global); no-op otherwise.
  void set_collab_hooks(const core::CollabPlannerHooks& hooks) override;

 private:
  /// The a-priori population downloads (paper §IV-A: the population pool,
  /// off the read path): every configured-but-missing chunk becomes a
  /// background fetch through the coalescing table.
  void populate_configuration();

  std::unique_ptr<core::AgarNode> node_;
};

}  // namespace agar::client
