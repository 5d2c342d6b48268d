// AgarNode — one region-level Agar deployment (paper Fig. 3): the cache
// plus the region manager, request monitor and cache manager, wired
// together. Clients in the region talk only to this facade:
//
//   * plan_read(id) — the "hint" protocol: records the access with the
//     request monitor and resolves every chunk of the object to a source
//     (local cache / backend region / asynchronous population fetch), all
//     on object ids: one configuration-mask load, residency by ChunkRef;
//   * the node reconfigures itself periodically when attached to the
//     simulation's event loop (30 s in the paper's experiments).
#pragma once

#include <memory>
#include <vector>

#include "cache/static_cache.hpp"
#include "core/cache_manager.hpp"
#include "core/read_planner.hpp"
#include "core/region_manager.hpp"
#include "core/request_monitor.hpp"
#include "sim/event_loop.hpp"

namespace agar::core {

struct AgarNodeParams {
  RegionId region = 0;
  std::size_t cache_capacity_bytes = 10_MB;
  SimTimeMs reconfig_period_ms = 30'000.0;  ///< paper: 30 seconds
  RequestMonitorParams monitor;
  CacheManagerParams cache_manager;
  std::size_t probes_per_region = 6;
};

class AgarNode {
 public:
  AgarNode(const store::BackendCluster* backend, sim::Network* network,
           AgarNodeParams params);

  /// Warm-up phase: probe per-region latencies (paper §IV: "the region
  /// manager computes this by retrieving several data blocks from each
  /// region in a warm-up phase").
  void warm_up();

  /// Schedule periodic reconfiguration (and a latency probe before each)
  /// on the simulation loop, which the network must be bound to (throws
  /// std::logic_error otherwise): probes run as background fetch events
  /// and each reconfiguration waits for its probe round to land.
  /// `after_reconfigure` (optional) runs after each
  /// reconfiguration — the Agar strategy hangs its population downloads
  /// there.
  void attach_to_loop(sim::EventLoop& loop,
                      std::function<void()> after_reconfigure = {});

  /// Resolve one read. Records the access in the request monitor.
  [[nodiscard]] ReadPlan plan_read(ObjectId id);

  [[nodiscard]] cache::StaticConfigCache& cache() { return cache_; }
  [[nodiscard]] const cache::StaticConfigCache& cache() const {
    return cache_;
  }
  [[nodiscard]] RegionManager& region_manager() { return region_manager_; }
  [[nodiscard]] RequestMonitor& request_monitor() { return request_monitor_; }
  [[nodiscard]] CacheManager& cache_manager() { return cache_manager_; }
  [[nodiscard]] RegionId region() const { return params_.region; }
  [[nodiscard]] const AgarNodeParams& params() const { return params_; }

 private:
  const store::BackendCluster* backend_;  // non-owning
  sim::Network* network_;                 // non-owning
  AgarNodeParams params_;
  cache::StaticConfigCache cache_;
  RegionManager region_manager_;
  RequestMonitor request_monitor_;
  CacheManager cache_manager_;
};

}  // namespace agar::core
