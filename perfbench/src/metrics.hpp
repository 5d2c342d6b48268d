// The benchmark's metric catalog (the names and units BENCHMARK.json lists)
// and what one run reports.
#pragma once

#include <cstdint>
#include <map>
#include <regex>
#include <string>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"reads_per_s", "1/s"}, {"virt_mean_ms", "ms"}, {"virt_p99_ms", "ms"},
    {"hit_ratio", "ratio"}, {"setup_s", "s"},       {"peak_rss_mb", "MB"},
};

inline constexpr MetricDef kPerLayer[] = {
    {"monitor.calls", "count"},
    {"monitor.ns_per_call", "ns"},
    {"plan.ns_per_read", "ns"},
    {"plan.cache_chunks_per_read", "count"},
    {"plan.backend_chunks_per_read", "count"},
    {"cache.ns_per_op", "ns"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"fetch.ns_per_call", "ns"},
    {"fetch.coalesced_ratio", "ratio"},
    {"net.ns_per_call", "ns"},
    {"net.wire_fetches_per_read", "count"},
    {"net.queued_frac", "ratio"},
    {"net.max_queue_depth", "count"},
    {"policy.attempts_per_fetch", "count"},
    {"policy.hedge_win_ratio", "ratio"},
    {"policy.retries", "count"},
    {"policy.exhausted", "count"},
    {"policy.failed_read_frac", "ratio"},
    {"policy.overload_failed_frac", "ratio"},
    {"client.ns_per_read", "ns"},
    {"loop.events_per_read", "count"},
    {"loop.ns_per_event", "ns"},
    {"loop.shard_speedup", "ratio"},
    {"loop.shard_results_equal", "count"},
    {"control.reconfigs", "count"},
    {"control.planning_ms_per_reconfig", "ms"},
    {"control.ms_per_reconfig", "ms"},
    {"control.churn_per_reconfig", "count"},
    {"decode.ns_per_read", "ns"},
    {"decode.mb_per_s", "MB/s"},
    {"decode.plan_hit_ratio", "ratio"},
    {"verify.ns_per_read", "ns"},
    {"store.get_chunk_ns", "ns"},
    {"process.cpu_us_per_read", "us"},
    {"process.sys_frac", "ratio"},
    {"process.minor_faults_per_read", "count"},
    {"collab.peer_hit_ratio", "ratio"},
    {"collab.stale_reads", "count"},
    {"collab.paxos_append_p99_ms", "ms"},
    {"daemon.serve_get_us", "us"},
    {"daemon.socket_tax_us", "us"},
    {"daemon.frame_codec_ns", "ns"},
    {"daemon.rtt_p50_us", "us"},
    {"daemon.rtt_p99_us", "us"},
    {"daemon.rtt_samples", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.replay_exact", "count"},
    {"trace.spans", "count"},
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Unscaled wall-clock figures and the host speed, for the meta line.
  std::map<std::string, double> raw;
};

/// client::results_json text with its one wall-clock field, planning_ms,
/// zeroed, so two runs of one seed compare byte for byte.
inline std::string comparable(const std::string& results_json) {
  static const std::regex kPlanning("\"planning_ms\": [-0-9.eE+]+");
  return std::regex_replace(results_json, kPlanning, "\"planning_ms\": 0");
}

}  // namespace perfbench
