// Read accounting shared by the experiment runner's lanes and the daemon's
// ServiceInstance, so a daemon route serving a runner's key stream reports
// byte-identical metrics: LaneRecorder records each read of one lane as it
// is issued and completes, merge_lanes folds the lanes into the run result.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "client/runner.hpp"

namespace agar::client {

/// One lane's completion counters, touched only from the lane's own events.
class LaneRecorder {
 public:
  void begin_read() {
    ++issued_;
    result_.max_reads_in_flight =
        std::max(result_.max_reads_in_flight, issued_ - completed());
  }

  /// A read completed at virtual time `now`. A recorder that only sees
  /// completions (one metric window) leaves the in-flight peak at zero.
  void complete_read(const ReadResult& r, SimTimeMs now) {
    ++result_.ops;
    if (r.failed) {
      ++result_.failed_reads;
    } else {
      result_.latencies.add(r.latency_ms);
      if (r.full_hit) ++result_.full_hits;
      if (r.partial_hit && !r.full_hit) ++result_.partial_hits;
      if (r.verified) ++result_.verified;
      if (r.degraded) ++result_.degraded_reads;
    }
    result_.duration_ms = std::max(result_.duration_ms, now);
  }

  [[nodiscard]] std::size_t issued() const { return issued_; }
  [[nodiscard]] std::size_t completed() const { return result_.ops; }
  [[nodiscard]] const RunResult& result() const { return result_; }

 private:
  RunResult result_;
  std::size_t issued_ = 0;
};

/// What merge_lanes reads from one lane at the end of a run.
struct LaneView {
  const LaneRecorder* recorder;
  const sim::Network* network;  ///< the lane's network partition
  ReadStrategy* strategy;
  const ec::ObjectCodec* codec;  ///< the lane's decode codec
};

/// Fold non-empty `lanes` into `result` in lane order (float accumulation
/// order is part of the determinism contract): counters and per-lane peaks
/// sum, the deepest region FIFO stays a maximum, region health EWMAs merge
/// weighted by samples; cache stats and the weight histogram come from the
/// primary (first) lane.
void merge_lanes(std::span<const LaneView> lanes, RunResult& result);

}  // namespace agar::client
