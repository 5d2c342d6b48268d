// Host-speed calibration.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent over seconds to minutes, which would swamp any wall-clock
// comparison between two runs. A fixed, benchmark-owned loop with the
// simulator's profile (short-string hashing, hash-map churn, a binary heap,
// small allocations and std::function calls) is timed in slices between
// the measured repetitions; wall-clock rates and times are reported scaled
// to a reference host on which the loop runs kReferenceOpsPerSec. The loop
// touches no code of the program, so a change to the program moves the
// scaled numbers exactly as it moves the raw ones. Measured on a shared
// 4-vCPU host, scaling cut the ten-seed spread of paper-meta's reads/s from
// about 0.2 to 0.05.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Calibration-loop rate of the reference host (operations per second).
inline constexpr double kReferenceOpsPerSec = 3.0e6;

/// Run one calibration slice (about 0.1 s on the reference host) and
/// return its rate in operations per second.
[[nodiscard]] double calibration_slice();

/// Speed of this host relative to the reference, from slices' median.
[[nodiscard]] double host_speed(const std::vector<double>& slice_rates);

/// Calibration slices interleaved with measured intervals: one slice runs
/// at construction and one after each interval, and an interval's host
/// speed is the mean of the slices on either side of it. Divide a rate by
/// the speed, or multiply a time by it, to scale it to the reference host.
class SpeedTrack {
 public:
  SpeedTrack() : slices_{calibration_slice()} {}

  /// Close the interval that just ended: run the next slice and return
  /// the interval's speed relative to the reference host.
  double after_interval() {
    slices_.push_back(calibration_slice());
    const std::size_t n = slices_.size();
    return (slices_[n - 2] + slices_[n - 1]) / 2.0 / kReferenceOpsPerSec;
  }

  [[nodiscard]] const std::vector<double>& slices() const { return slices_; }

 private:
  std::vector<double> slices_;
};

}  // namespace perfbench
