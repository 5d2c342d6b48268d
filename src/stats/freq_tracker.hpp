// Per-period access frequency tracking with EWMA smoothing — the state
// behind Agar's request monitor (paper §III-b / §IV-A).
//
// record() counts accesses within the current period; roll_period() folds
// the period's counts into each key's EWMA popularity and resets the
// counters. Keys whose popularity decays below a floor are dropped so the
// tracked set follows the working set, not the full key space. Keys are
// ObjectIds: state is a flat vector indexed by id plus the list of tracked
// ids, so counting an access is an array increment.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace agar::stats {

class FreqTracker {
 public:
  explicit FreqTracker(double alpha = 0.8, double drop_below = 1e-3)
      : alpha_(alpha), drop_below_(drop_below) {}

  /// Count one access to `id` in the current period.
  void record(ObjectId id);

  /// Close the current period: popularity <- alpha*freq + (1-alpha)*pop.
  /// Returns the number of keys still tracked.
  std::size_t roll_period();

  /// Smoothed popularity of a key (0 if never seen / decayed away).
  [[nodiscard]] double popularity(ObjectId id) const {
    return id < state_.size() ? state_[id].popularity : 0.0;
  }

  /// Raw in-period count.
  [[nodiscard]] std::uint64_t current_count(ObjectId id) const {
    return id < state_.size() ? state_[id].count : 0;
  }

  /// Every tracked id, unspecified order.
  [[nodiscard]] const std::vector<ObjectId>& tracked() const {
    return tracked_;
  }

  [[nodiscard]] std::size_t tracked_keys() const { return tracked_.size(); }
  [[nodiscard]] std::uint64_t periods() const { return periods_; }
  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  struct KeyState {
    double popularity = 0.0;
    std::uint64_t count = 0;  // accesses in the current period
    bool tracked = false;
  };

  double alpha_;
  double drop_below_;
  std::uint64_t periods_ = 0;
  std::vector<KeyState> state_;    // by ObjectId
  std::vector<ObjectId> tracked_;  // ids with tracked == true
};

}  // namespace agar::stats
