// Popularity estimation — the open interface behind Agar's request monitor
// (paper §III-b). An estimator counts accesses within the current period,
// folds them into a smoothed per-key popularity when the period rolls, and
// serves the (key, popularity) snapshot the option generator plans from.
//
// Estimators are registry entries (api::EstimatorRegistry), selected per
// experiment with the `monitor=` spec key:
//   * exact-ewma — one exact counter + EWMA per key (the paper's monitor,
//     default); memory follows the working set.
//   * count-min  — a count-min sketch for the per-period counts plus a
//     bounded candidate-key set: sublinear memory on large keyspaces at
//     the price of (bounded) over-estimates (the §VII scalability avenue).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace agar::core {

/// (object, popularity) pairs in the key strings' order.
using PopularitySnapshot = std::vector<std::pair<ObjectId, double>>;

/// Estimators count ObjectIds (one array or hash-table step per read, no
/// string hashing); the object table they are built with supplies the key
/// order their snapshots and tie-breaks follow and the key hashes their
/// sketches use, so every decision matches the string-keyed estimator.
class PopularityEstimator {
 public:
  virtual ~PopularityEstimator() = default;

  /// Count one access to `id` in the current period.
  virtual void record(ObjectId id) = 0;

  /// Close the current period: popularity <- alpha*count + (1-alpha)*pop.
  virtual void roll_period() = 0;

  /// Smoothed popularity blended with the current period's in-flight
  /// counts, so a cold start still ranks keys (paper: the first iteration
  /// uses popularity = alpha * freq + (1 - alpha) * 0).
  [[nodiscard]] virtual double popularity(ObjectId id) const = 0;

  /// All (id, popularity) pairs, **sorted by key string**. The sort order
  /// is a contract: it is what makes planner input — and therefore the
  /// installed configuration — byte-identical across platforms and builds.
  [[nodiscard]] virtual PopularitySnapshot snapshot() const = 0;

  [[nodiscard]] virtual std::size_t tracked_keys() const = 0;

  /// Registry name ("exact-ewma", ...) for logs and reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace agar::core
