#include "core/popularity_estimator.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "api/registry.hpp"
#include "stats/count_min.hpp"
#include "stats/freq_tracker.hpp"
#include "store/object_table.hpp"

namespace agar::core {

namespace {

/// Sort a snapshot into the key strings' order.
void sort_by_key(PopularitySnapshot& snap, const store::ObjectTable& objects) {
  std::sort(snap.begin(), snap.end(), [&objects](const auto& a, const auto& b) {
    return objects.key_less(a.first, b.first);
  });
}

const store::ObjectTable& require_objects(const api::EstimatorContext& ctx) {
  if (ctx.objects == nullptr) {
    throw std::invalid_argument("popularity estimator: no object table");
  }
  return *ctx.objects;
}

/// The paper's monitor: exact per-key counts + EWMA (stats::FreqTracker),
/// with the current period's in-flight counts blended into every reading.
class ExactEwmaEstimator final : public PopularityEstimator {
 public:
  ExactEwmaEstimator(const store::ObjectTable& objects, double alpha,
                     double drop_below)
      : objects_(objects), alpha_(alpha), tracker_(alpha, drop_below) {}

  void record(ObjectId id) override { tracker_.record(id); }

  void roll_period() override { tracker_.roll_period(); }

  [[nodiscard]] double popularity(ObjectId id) const override {
    return tracker_.popularity(id) +
           alpha_ * static_cast<double>(tracker_.current_count(id));
  }

  [[nodiscard]] PopularitySnapshot snapshot() const override {
    PopularitySnapshot snap;
    snap.reserve(tracker_.tracked_keys());
    for (const ObjectId id : tracker_.tracked()) {
      snap.emplace_back(id, popularity(id));
    }
    sort_by_key(snap, objects_);
    return snap;
  }

  [[nodiscard]] std::size_t tracked_keys() const override {
    return tracker_.tracked_keys();
  }

  [[nodiscard]] std::string name() const override { return "exact-ewma"; }

 private:
  const store::ObjectTable& objects_;
  double alpha_;
  stats::FreqTracker tracker_;
};

/// Sketch-backed estimator: per-period counts live in a count-min sketch
/// (fixed memory regardless of keyspace), and only a bounded candidate set
/// of keys carries an EWMA popularity into planning. Estimates can only
/// over-count (sketch collisions), never under-count. The sketch hashes
/// each key's FNV-1a, as the string-keyed sketch did.
class CountMinEstimator final : public PopularityEstimator {
 public:
  CountMinEstimator(const store::ObjectTable& objects, double alpha,
                    std::size_t width, std::size_t depth,
                    std::size_t max_keys, double drop_below)
      : objects_(objects),
        alpha_(alpha),
        max_keys_(std::max<std::size_t>(max_keys, 1)),
        drop_below_(drop_below),
        sketch_(width, depth) {}

  void record(ObjectId id) override {
    sketch_.add(objects_.key_hash(id));
    if (pops_.count(id) != 0) return;
    if (pops_.size() < max_keys_) {
      pops_.emplace(id, 0.0);
      return;
    }
    // Candidate set full: a new key displaces the weakest candidate only
    // once its sketch estimate out-ranks that candidate's blended
    // popularity. record() is on the path of every client read, so the
    // full O(max_keys) victim scan is amortized: it runs once per period
    // roll and once per displacement; the steady-state challenge is one
    // O(depth) re-estimate of the cached victim.
    const auto est = sketch_.estimate(objects_.key_hash(id));
    if (est < 2) return;
    if (!weakest_.has_value()) refresh_weakest();
    if (!weakest_.has_value()) return;
    const double weakest_pop = blended(*weakest_, pops_.at(*weakest_));
    if (alpha_ * static_cast<double>(est) > weakest_pop) {
      pops_.erase(*weakest_);
      pops_.emplace(id, 0.0);
      weakest_.reset();
    }
  }

  void roll_period() override {
    // agar-lint: ordered-ok(per-key EWMA decay + threshold drop; every key
    // is updated independently, so visit order cannot change the result)
    for (auto it = pops_.begin(); it != pops_.end();) {
      const auto count = sketch_.estimate(objects_.key_hash(it->first));
      it->second = alpha_ * static_cast<double>(count) +
                   (1.0 - alpha_) * it->second;
      if (it->second < drop_below_) {
        it = pops_.erase(it);
      } else {
        ++it;
      }
    }
    // Fresh counters per period (the EWMA carries the history); the
    // decayed popularities re-rank the candidates, so the cached victim
    // is stale.
    sketch_.reset();
    weakest_.reset();
  }

  [[nodiscard]] double popularity(ObjectId id) const override {
    const auto it = pops_.find(id);
    return blended(id, it == pops_.end() ? 0.0 : it->second);
  }

  [[nodiscard]] PopularitySnapshot snapshot() const override {
    PopularitySnapshot out;
    out.reserve(pops_.size());
    // agar-lint: ordered-ok(sorted by key string below; snapshot() promises
    // key-sorted output — the estimator determinism contract)
    for (const auto& [id, pop] : pops_) out.emplace_back(id, blended(id, pop));
    sort_by_key(out, objects_);
    return out;
  }

  [[nodiscard]] std::size_t tracked_keys() const override {
    return pops_.size();
  }

  [[nodiscard]] std::string name() const override { return "count-min"; }

 private:
  [[nodiscard]] double blended(ObjectId id, double pop) const {
    return pop +
           alpha_ * static_cast<double>(sketch_.estimate(objects_.key_hash(id)));
  }

  /// Full victim scan; deterministic tie-break (the lexicographically
  /// largest key string) so displacement order never depends on hash-map
  /// iteration.
  void refresh_weakest() {
    weakest_.reset();
    double weakest_pop = std::numeric_limits<double>::infinity();
    // agar-lint: ordered-ok(min-scan with explicit key-string tie-break;
    // the chosen victim is order-independent)
    for (const auto& [id, pop] : pops_) {
      const double p = blended(id, pop);
      if (!weakest_.has_value() || p < weakest_pop ||
          (p == weakest_pop && objects_.key_less(*weakest_, id))) {
        weakest_ = id;
        weakest_pop = p;
      }
    }
  }

  const store::ObjectTable& objects_;
  double alpha_;
  std::size_t max_keys_;
  double drop_below_;
  stats::CountMinSketch sketch_;
  std::unordered_map<ObjectId, double> pops_;
  /// Cached displacement victim; empty = recompute on next challenge.
  std::optional<ObjectId> weakest_;
};

const api::EstimatorRegistration kExactEwma{{
    "exact-ewma",
    "exact EWMA",
    "exact per-key counts folded into EWMA popularity (the paper's request "
    "monitor)",
    api::ParamSchema{{
        {"drop_below", api::ParamType::kDouble, "0.001",
         "drop keys whose popularity decays below this floor"},
    }},
    [](const api::EstimatorContext& ctx, const api::ParamMap& params) {
      return std::make_unique<ExactEwmaEstimator>(
          require_objects(ctx), ctx.ewma_alpha,
          params.get_double("drop_below", 1e-3));
    },
    {}}};

const api::EstimatorRegistration kCountMin{{
    "count-min",
    "count-min",
    "count-min sketch counts + bounded candidate set: sublinear memory on "
    "large keyspaces, bounded over-estimates",
    api::ParamSchema{{
        {"width", api::ParamType::kSize, "1024", "sketch counters per row"},
        {"depth", api::ParamType::kSize, "4", "sketch hash rows"},
        {"max_keys", api::ParamType::kSize, "4096",
         "bound on candidate keys carried into planning"},
        {"drop_below", api::ParamType::kDouble, "0.001",
         "drop candidates whose popularity decays below this floor"},
    }},
    [](const api::EstimatorContext& ctx, const api::ParamMap& params) {
      return std::make_unique<CountMinEstimator>(
          require_objects(ctx), ctx.ewma_alpha, params.get_size("width", 1024),
          params.get_size("depth", 4), params.get_size("max_keys", 4096),
          params.get_double("drop_below", 1e-3));
    },
    {}}};

}  // namespace

}  // namespace agar::core
