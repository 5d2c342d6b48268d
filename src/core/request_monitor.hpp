// Request monitor (paper §III-b): listens to client requests, maintains
// per-object popularity, and serves cache hints. Every client read goes
// through `record_access`, mirroring the prototype where the monitor is on
// the path of each operation (the paper measured ~0.5 ms of processing per
// request; the simulation charges that as `processing_ms`).
//
// Popularity tracking itself is a pluggable core::PopularityEstimator
// resolved from api::EstimatorRegistry — `exact-ewma` (the paper's EWMA
// map, default) or `count-min` (sketch-backed, sublinear memory). Selected
// per experiment with the `monitor=` spec key.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/param_map.hpp"
#include "common/types.hpp"
#include "core/popularity_estimator.hpp"
#include "store/object_table.hpp"

namespace agar::core {

struct RequestMonitorParams {
  double ewma_alpha = 0.8;   ///< paper's weighting coefficient
  double processing_ms = 0.5;///< per-request monitor overhead (paper §VI)
  /// Popularity-estimator registry entry backing this monitor.
  std::string estimator = "exact-ewma";
  /// Estimator-specific parameters (width, depth, ... — validated against
  /// the registered schema by the spec layer).
  api::ParamMap estimator_params;
};

class RequestMonitor {
 public:
  /// `objects` (non-null, must outlive the monitor) is the table the
  /// recorded ids come from.
  RequestMonitor(RequestMonitorParams params,
                 const store::ObjectTable* objects);

  /// Record one client access. Returns the monitor's processing overhead in
  /// ms so the caller can charge it to the request's latency.
  double record_access(ObjectId id);
  /// Key-string adapter: resolves the key (std::out_of_range if unknown).
  double record_access(const ObjectKey& key) {
    return record_access(objects_->id_of(key));
  }

  /// Close the current period (called by the cache manager at
  /// reconfiguration time): folds counts into smoothed popularities.
  void roll_period();

  [[nodiscard]] double popularity(ObjectId id) const;

  /// (id, popularity) snapshot for the cache manager, sorted by key
  /// string — planner input never depends on hash-map iteration order.
  [[nodiscard]] PopularitySnapshot snapshot() const;

  [[nodiscard]] const store::ObjectTable& objects() const { return *objects_; }

  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::size_t tracked_keys() const {
    return estimator_->tracked_keys();
  }
  [[nodiscard]] const RequestMonitorParams& params() const { return params_; }
  [[nodiscard]] const PopularityEstimator& estimator() const {
    return *estimator_;
  }

 private:
  RequestMonitorParams params_;
  const store::ObjectTable* objects_;  // non-owning
  std::unique_ptr<PopularityEstimator> estimator_;
  std::uint64_t accesses_ = 0;
};

}  // namespace agar::core
