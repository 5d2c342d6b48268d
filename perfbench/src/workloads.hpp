// The simulator workloads. Each is one experiment shape in three sizes:
// the reported virtual results come from a multi-run experiment (the
// paper's averaging over runs, so they are stable across seeds), wall-clock
// throughput from short single-run repetitions of the same shape, and the
// traced run from one single-run experiment the replay can match exactly.
//
// Throughput is timed on the serial engine (shards=1). The sharded engine's
// results are identical for any shard count, and on a shared 4-vCPU host
// its wall time swung by a third between runs of one seed as other tenants
// came and went, against a few percent for the serial engine; so it runs
// the virtual experiment and the traced run's cross-check and speed-up
// probe, not the timed repetitions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/experiment_spec.hpp"

namespace perfbench {

struct SimWorkload {
  agar::api::ExperimentSpec virt;      ///< source of the virtual metrics
  agar::api::ExperimentSpec measured;  ///< one timed repetition (serial)
  agar::api::ExperimentSpec traced;    ///< counters + replayed read path
  /// The measured repetition on the sharded engine (multi-region workloads
  /// only): the traced run reports its speed-up and whether its results
  /// equal the serial engine's byte for byte.
  std::optional<agar::api::ExperimentSpec> sharded;
  /// The same shape at a load where the program is known to fail reads;
  /// its failed share is reported by the traced run (geo-hedge only).
  std::optional<agar::api::ExperimentSpec> overload;
};

/// "paper-meta", "paper-verify" or "geo-hedge" with run seed `seed`;
/// throws std::invalid_argument for any other name.
[[nodiscard]] SimWorkload sim_workload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace perfbench
