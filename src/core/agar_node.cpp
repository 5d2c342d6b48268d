#include "core/agar_node.hpp"

#include <stdexcept>

namespace agar::core {

namespace {

const store::ObjectTable* objects_of(const store::BackendCluster* backend) {
  if (backend == nullptr) {
    throw std::invalid_argument("AgarNode: null backend");
  }
  return &backend->objects();
}

RegionManagerParams make_region_manager_params(const AgarNodeParams& p) {
  RegionManagerParams out;
  out.local_region = p.region;
  out.probes_per_region = p.probes_per_region;
  return out;
}

}  // namespace

AgarNode::AgarNode(const store::BackendCluster* backend, sim::Network* network,
                   AgarNodeParams params)
    : backend_(backend),
      network_(network),
      params_(params),
      cache_(params.cache_capacity_bytes, objects_of(backend)),
      region_manager_(backend, network, make_region_manager_params(params)),
      request_monitor_(params.monitor, objects_of(backend)),
      cache_manager_(backend, &region_manager_, &request_monitor_, &cache_,
                     params.cache_manager) {}

void AgarNode::warm_up() { region_manager_.probe(); }

void AgarNode::attach_to_loop(sim::EventLoop& loop,
                              std::function<void()> after_reconfigure) {
  // Probing is asynchronous: the timer fires a probe round and the
  // reconfiguration runs once the probes have landed on this loop.
  if (network_->loop() != &loop) {
    throw std::logic_error(
        "AgarNode::attach_to_loop: the network must be bound to the loop");
  }
  region_manager_.schedule_probe_pipeline(
      loop, params_.reconfig_period_ms,
      [this, after = std::move(after_reconfigure)]() {
        cache_manager_.reconfigure();
        if (after) after();
      });
}

ReadPlan AgarNode::plan_read(ObjectId id) {
  const double overhead = request_monitor_.record_access(id);
  ReadPlan plan =
      plan_chunk_sources(*backend_, region_manager_, cache_,
                         cache_manager_.current().mask_of(id), id);
  plan.monitor_overhead_ms = overhead;
  return plan;
}

}  // namespace agar::core
