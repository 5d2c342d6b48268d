#include "stats/freq_tracker.hpp"

namespace agar::stats {

void FreqTracker::record(ObjectId id) {
  if (id >= state_.size()) state_.resize(static_cast<std::size_t>(id) + 1);
  KeyState& s = state_[id];
  ++s.count;
  if (!s.tracked) {
    s.tracked = true;
    tracked_.push_back(id);
  }
}

std::size_t FreqTracker::roll_period() {
  ++periods_;
  std::size_t kept = 0;
  for (const ObjectId id : tracked_) {
    KeyState& s = state_[id];
    s.popularity = alpha_ * static_cast<double>(s.count) +
                   (1.0 - alpha_) * s.popularity;
    s.count = 0;
    if (s.popularity < drop_below_) {
      s = KeyState{};
    } else {
      tracked_[kept++] = id;
    }
  }
  tracked_.resize(kept);
  return kept;
}

}  // namespace agar::stats
