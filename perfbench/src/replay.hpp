// Traced replay of one simulator workload's read path.
//
// The replay rebuilds an Agar read path from the layers' public pieces —
// client::Deployment, core::AgarNode's monitor/region manager/cache
// manager/cache, core::plan_chunk_sources, core::FetchCoordinator (its
// transport hook wraps the wire call, optionally through the registered
// fetch policy), sim::EventLoop::step, ec::ObjectCodec::decode and
// deterministic_payload — in the order client::AgarStrategy and
// client::ReadStrategy::start_plan compose them, and replays the workload's
// key stream (the runner's per-client stream seeds) through it with a span
// around every layer call. The cooperative cache tier is not replayed: its
// numbers come from the program's own counters.
#pragma once

#include <cstdint>

#include "api/experiment_spec.hpp"
#include "trace.hpp"

namespace perfbench {

struct ReplayResult {
  std::uint64_t reads = 0;  ///< completed reads
  std::uint64_t failed = 0;
  std::uint64_t full_hits = 0;
  std::uint64_t partial_hits = 0;
  std::uint64_t verified = 0;
  std::uint64_t verify_mismatches = 0;
  double latency_sum_ms = 0.0;  ///< successful reads, completion order
  std::uint64_t plan_cache_chunks = 0;
  std::uint64_t plan_backend_chunks = 0;
  std::uint64_t decoded_bytes = 0;
  std::uint64_t events = 0;   ///< EventLoop::step calls that ran an event
  std::uint64_t wall_ns = 0;  ///< the driven loop only, set-up excluded
  std::uint64_t user_ns = 0;  ///< user CPU time of that loop
};

/// Replay the first `reads` reads of `spec` (run seed = its seed). With
/// `corrupt_expected`, the expected payload of every verify-mode read is
/// altered, so every check must fail (the gate's self-check).
[[nodiscard]] ReplayResult replay_read_path(const agar::api::ExperimentSpec& spec,
                                            std::size_t reads, Tracer& tracer,
                                            bool corrupt_expected);

}  // namespace perfbench
