#include "core/request_monitor.hpp"

#include <stdexcept>

#include "api/registry.hpp"

namespace agar::core {

RequestMonitor::RequestMonitor(RequestMonitorParams params,
                               const store::ObjectTable* objects)
    : params_(std::move(params)), objects_(objects) {
  if (objects_ == nullptr) {
    throw std::invalid_argument("RequestMonitor: null object table");
  }
  api::EstimatorContext ctx;
  ctx.ewma_alpha = params_.ewma_alpha;
  ctx.objects = objects_;
  estimator_ = api::EstimatorRegistry::instance().create(
      params_.estimator, ctx, params_.estimator_params);
}

double RequestMonitor::record_access(ObjectId id) {
  ++accesses_;
  estimator_->record(id);
  return params_.processing_ms;
}

void RequestMonitor::roll_period() { estimator_->roll_period(); }

double RequestMonitor::popularity(ObjectId id) const {
  return estimator_->popularity(id);
}

PopularitySnapshot RequestMonitor::snapshot() const {
  return estimator_->snapshot();
}

}  // namespace agar::core
