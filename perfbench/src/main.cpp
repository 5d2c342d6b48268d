// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --agard <path> --routes <file> --out <dir> [--git-rev <rev>]
//             [--corrupt-expected]
//   perfbench --self-test
//
// Prints one "meta" JSON line (host and build) and, last, one result line
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}:
// the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// --corrupt-expected alters every expected payload and result digest the
// correctness gates compare against, so the run must come out incorrect.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/run.hpp"
#include "calibrate.hpp"
#include "client/report.hpp"
#include "daemon_workload.hpp"
#include "gf/gf256.hpp"
#include "metrics.hpp"
#include "replay.hpp"
#include "self_test.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZERS
#define PERFBENCH_SANITIZERS "unknown"
#endif

namespace perfbench {

namespace {

using namespace agar;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  std::string agard;
  std::string routes;
  std::string out = ".";
  std::string git_rev = "unknown";
  bool corrupt = false;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Usage {
  double user_s = 0, sys_s = 0, minor_faults = 0, max_rss_mb = 0;
};
Usage usage_now() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

/// One repetition: the experiment as api::run runs it, with its set-up
/// (deployment build and working-set encode, strategy construction) timed
/// apart from the reads through the factory hook. The timings are those of
/// the last run, so they are meaningful for single-run specs only.
struct Rep {
  client::ExperimentResult result;
  double setup_s = 0;
  double reads_per_s = 0;
};
Rep run_rep(const api::ExperimentSpec& spec) {
  std::uint64_t setup_done = 0;
  const client::StrategyFactory inner = api::make_strategy_factory(spec);
  const client::StrategyFactory timed =
      [&](const client::ExperimentConfig& config, client::Deployment& dep,
          RegionId region, sim::EventLoop* loop) {
        auto strategy = inner(config, dep, region, loop);
        setup_done = now_ns();
        return strategy;
      };
  Rep rep;
  const std::uint64_t t0 = now_ns();
  rep.result = client::run_experiment(spec.experiment, timed, spec.label());
  const std::uint64_t t1 = now_ns();
  rep.setup_s = static_cast<double>(setup_done - t0) / 1e9;
  rep.reads_per_s = static_cast<double>(rep.result.total_ops()) /
                    (static_cast<double>(t1 - setup_done) / 1e9);
  return rep;
}

/// Gates every repetition must pass: no failed read, every read verified
/// in verify mode, and results_json identical to the first repetition's.
void check_rep(const api::ExperimentSpec& spec, const Rep& rep,
               std::string& reference, bool corrupt, Outcome& out) {
  for (const client::RunResult& r : rep.result.runs) {
    out.attempted += r.ops;
    out.failed += r.failed_reads;
    if (r.failed_reads != 0) out.correct = false;
    if (spec.experiment.verify_data) {
      const std::uint64_t unverified = r.ops - r.failed_reads - r.verified;
      out.failed += unverified;
      if (unverified != 0) out.correct = false;
    }
  }
  const std::string json = comparable(client::results_json({rep.result}));
  if (reference.empty()) {
    reference = json;
    if (corrupt) reference[reference.size() / 2] ^= 0x01;
  } else if (json != reference) {
    std::fprintf(stderr, "perfbench: results_json differs between repetitions\n");
    out.correct = false;
  }
}

void virtual_metrics(const client::ExperimentResult& result, Outcome& out) {
  out.metrics["virt_mean_ms"] = result.mean_latency_ms();
  out.metrics["virt_p99_ms"] = result.percentile_ms(99);
  out.metrics["hit_ratio"] = result.hit_ratio();
  std::size_t samples = 0;
  for (const client::RunResult& r : result.runs) samples += r.latencies.count();
  if (tail_percentile(samples) < 99.0) {
    std::fprintf(stderr, "perfbench: too few samples for a p99\n");
    out.correct = false;
  }
}

Outcome sim_end_to_end(const Options& o) {
  const SimWorkload w = sim_workload(o.workload, o.seed);
  Outcome out;
  // Warm-up: the multi-run experiment whose virtual results are reported.
  // Its wall time is not measured.
  std::string virt_reference;
  const Rep virt = run_rep(w.virt);
  check_rep(w.virt, virt, virt_reference, false, out);
  virtual_metrics(virt.result, out);

  // Single-run repetitions until the measured time is spent (at least
  // three), each timed between calibration slices.
  std::string reference;
  std::vector<double> setups, raw_setups;
  std::vector<double> rates, raw_rates;
  SpeedTrack speed;
  const std::uint64_t t0 = now_ns();
  while (rates.size() < 3 ||
         static_cast<double>(now_ns() - t0) / 1e9 < o.seconds) {
    const Rep rep = run_rep(w.measured);
    check_rep(w.measured, rep, reference, o.corrupt, out);
    const double s = speed.after_interval();
    raw_setups.push_back(rep.setup_s);
    setups.push_back(rep.setup_s * s);
    raw_rates.push_back(rep.reads_per_s);
    rates.push_back(rep.reads_per_s / s);
  }
  out.raw["host_speed"] = host_speed(speed.slices());
  out.raw["reads_per_s"] = median(raw_rates);
  out.raw["setup_s"] = median(raw_setups);
  out.raw["repetitions"] = static_cast<double>(rates.size());
  out.metrics["reads_per_s"] = median(rates);
  out.metrics["setup_s"] = median(setups);
  out.metrics["peak_rss_mb"] = usage_now().max_rss_mb;
  return out;
}

Outcome sim_traced(const Options& o) {
  const SimWorkload w = sim_workload(o.workload, o.seed);
  Outcome out;
  auto& m = out.metrics;

  // The program's own counters, from one untraced repetition.
  std::string reference;
  const Usage u0 = usage_now();
  const Rep rep = run_rep(w.traced);
  const Usage u1 = usage_now();
  check_rep(w.traced, rep, reference, false, out);
  const client::RunResult& r = rep.result.runs.front();
  const double ops = static_cast<double>(r.ops);
  const double cpu_s = (u1.user_s - u0.user_s) + (u1.sys_s - u0.sys_s);
  m["process.cpu_us_per_read"] = cpu_s * 1e6 / ops;
  m["process.sys_frac"] = ratio(u1.sys_s - u0.sys_s, cpu_s);
  m["process.minor_faults_per_read"] = (u1.minor_faults - u0.minor_faults) / ops;
  m["cache.hit_ratio"] = r.cache_stats.hit_rate();
  m["cache.evictions"] = static_cast<double>(r.cache_stats.evictions);
  m["fetch.coalesced_ratio"] = ratio(static_cast<double>(r.coalesced_fetches),
                                     static_cast<double>(r.coalesced_fetches + r.wire_fetches));
  const double first_attempts = static_cast<double>(r.fetch_attempts) -
                                static_cast<double>(r.fetch_retries + r.hedges_issued);
  m["policy.attempts_per_fetch"] = ratio(static_cast<double>(r.fetch_attempts), first_attempts);
  m["policy.hedge_win_ratio"] = ratio(static_cast<double>(r.hedges_won),
                                      static_cast<double>(r.hedges_issued));
  m["policy.retries"] = static_cast<double>(r.fetch_retries);
  m["policy.exhausted"] = static_cast<double>(r.fetch_exhausted);
  m["policy.failed_read_frac"] = static_cast<double>(r.failed_reads) / ops;
  m["net.wire_fetches_per_read"] = static_cast<double>(r.wire_fetches) / ops;
  m["net.queued_frac"] = ratio(static_cast<double>(r.queued_fetches),
                               static_cast<double>(r.wire_fetches));
  m["net.max_queue_depth"] = static_cast<double>(r.max_queue_depth);
  m["control.reconfigs"] = static_cast<double>(r.reconfigurations);
  const double reconfigs = static_cast<double>(r.reconfigurations);
  m["control.planning_ms_per_reconfig"] = ratio(r.planning_ms, reconfigs);
  m["control.churn_per_reconfig"] =
      ratio(static_cast<double>(r.config_chunks_installed + r.config_chunks_evicted),
            reconfigs);
  m["decode.plan_hit_ratio"] =
      ratio(static_cast<double>(r.decode_plan_hits),
            static_cast<double>(r.decode_plan_hits + r.decode_plan_misses));
  m["collab.peer_hit_ratio"] =
      ratio(static_cast<double>(r.collab_peer_hits),
            static_cast<double>(r.collab_peer_hits + r.collab_peer_misses));
  m["collab.stale_reads"] = static_cast<double>(r.stale_config_reads);
  m["collab.paxos_append_p99_ms"] = r.paxos_append_p99_ms;

  // The same key stream through the replayed read path: self times per
  // layer from a traced replay, the tracing overhead against untraced
  // replays run before and after it (so allocator and cache warm-up fall
  // on both sides).
  const std::size_t reads = w.traced.experiment.ops_per_run;
  ReplayResult before;
  ReplayResult after;
  {
    Tracer off(false, reads * 48);
    before = replay_read_path(w.traced, reads, off, o.corrupt);
  }
  Tracer tracer(true, reads * 48);
  const ReplayResult traced = replay_read_path(w.traced, reads, tracer, o.corrupt);
  {
    Tracer off(false, reads * 48);
    after = replay_read_path(w.traced, reads, off, o.corrupt);
  }
  for (const ReplayResult& rr : {before, traced, after}) {
    out.attempted += rr.reads;
    out.failed += rr.failed + rr.verify_mismatches;
    if (rr.failed != 0 || rr.verify_mismatches != 0) out.correct = false;
    if (w.traced.experiment.verify_data && rr.verified != rr.reads) out.correct = false;
  }
  const LayerTotals t = layer_totals(tracer.spans());
  const double done = static_cast<double>(traced.reads);
  auto self_per_read = [&](Layer l) {
    return static_cast<double>(t.self_ns[static_cast<std::size_t>(l)]) / done;
  };
  auto calls = [&](Layer l) {
    return static_cast<double>(t.calls[static_cast<std::size_t>(l)]);
  };
  m["monitor.calls"] = calls(Layer::kMonitor);
  m["monitor.ns_per_call"] = t.ns_per_call(Layer::kMonitor);
  m["plan.ns_per_read"] = self_per_read(Layer::kPlan);
  m["plan.cache_chunks_per_read"] = static_cast<double>(traced.plan_cache_chunks) / done;
  m["plan.backend_chunks_per_read"] = static_cast<double>(traced.plan_backend_chunks) / done;
  m["cache.ns_per_op"] = t.ns_per_call(Layer::kCache);
  m["fetch.ns_per_call"] = t.ns_per_call(Layer::kFetch);
  m["net.ns_per_call"] = t.ns_per_call(Layer::kNet);
  m["client.ns_per_read"] = self_per_read(Layer::kClient);
  m["loop.events_per_read"] = static_cast<double>(traced.events) / done;
  m["loop.ns_per_event"] = t.ns_per_call(Layer::kLoop);
  m["control.ms_per_reconfig"] = t.ns_per_call(Layer::kControl) / 1e6;
  m["decode.ns_per_read"] = self_per_read(Layer::kDecode);
  m["decode.mb_per_s"] =
      ratio(static_cast<double>(traced.decoded_bytes) / 1e6,
            static_cast<double>(t.self_ns[static_cast<std::size_t>(Layer::kDecode)]) / 1e9);
  m["verify.ns_per_read"] = self_per_read(Layer::kVerify);
  m["store.get_chunk_ns"] = t.ns_per_call(Layer::kStore);
  m["trace.coverage"] = ratio(static_cast<double>(t.total_self_ns()),
                              static_cast<double>(traced.wall_ns));
  // User CPU time, not wall time: in verify mode the wall time of a replay
  // swings with page-fault counts far more than tracing could move it.
  m["trace.overhead_frac"] =
      2.0 * static_cast<double>(traced.user_ns) /
          static_cast<double>(before.user_ns + after.user_ns) -
      1.0;
  m["trace.spans"] = static_cast<double>(tracer.spans().size());
  // 1 when the replay's reads came out exactly as the program's own run of
  // the same stream (same length; single-lane workloads without collab).
  const bool same_length = traced.reads == r.ops;
  m["trace.replay_exact"] =
      same_length && traced.full_hits == r.full_hits &&
              traced.partial_hits == r.partial_hits &&
              traced.latency_sum_ms == r.latencies.sum()
          ? 1.0
          : 0.0;
  tracer.write_tsv(o.out + "/" + o.workload + ".spans.tsv");

  // The sharded engine on the same experiment: its wall-clock speed-up
  // over the serial engine, and whether its results are the same bytes.
  // The latter is reported, not gated: the program promises it, but its
  // collab Paxos append p50 differs between shard counts on most seeds.
  if (w.sharded.has_value()) {
    const api::ExperimentSpec spec = w.traced.with(
        {"shards=" + std::to_string(w.sharded->experiment.shards)});
    const Rep sharded = run_rep(spec);
    out.attempted += sharded.result.total_ops();
    m["loop.shard_speedup"] = sharded.reads_per_s / rep.reads_per_s;
    const bool same = comparable(client::results_json({sharded.result})) ==
                      comparable(client::results_json({rep.result}));
    if (!same) {
      std::fprintf(stderr, "perfbench: results differ between shard counts\n");
    }
    m["loop.shard_results_equal"] = same ? 1.0 : 0.0;
  }

  // The known overload defect, measured and reported, not gated: its
  // failed reads are the finding, not a benchmark failure.
  if (w.overload.has_value()) {
    const Rep probe = run_rep(*w.overload);
    const client::RunResult& p = probe.result.runs.front();
    m["policy.overload_failed_frac"] =
        static_cast<double>(p.failed_reads) / static_cast<double>(p.ops);
  }
  return out;
}

// ------------------------------------------------------------ reporting

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string meta_json(const Options& o, const Outcome& out) {
  char host[256] = {};
  ::gethostname(host, sizeof(host) - 1);
  std::ostringstream s;
  s << "{\"meta\": {\"workload\": " << json_string(o.workload)
    << ", \"seed\": " << o.seed << ", \"trace\": " << (o.trace ? 1 : 0)
    << ", \"host\": " << json_string(host)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": " << json_string(compiler())
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"sanitizers\": " << json_string(PERFBENCH_SANITIZERS)
    << ", \"simd_backend\": " << json_string(gf::backend_name(gf::active_backend()))
    << ", \"git_rev\": " << json_string(o.git_rev) << ", \"raw\": {";
  bool first = true;
  for (const auto& [name, value] : out.raw) {
    s << (first ? "" : ", ") << json_string(name) << ": " << number(value);
    first = false;
  }
  s << "}}}";
  return s.str();
}

std::string result_json(const Outcome& out, bool trace) {
  std::ostringstream s;
  s << "{\"correct\": " << (out.correct ? "true" : "false")
    << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
    << ", \"metrics\": {";
  bool first = true;
  // A per-layer metric a workload does not exercise reads 0; every
  // end-to-end metric must have been measured.
  auto emit = [&](const MetricDef& d) {
    const auto it = out.metrics.find(d.name);
    if (!trace && it == out.metrics.end()) {
      throw std::logic_error(std::string("unmeasured metric ") + d.name);
    }
    s << (first ? "" : ", ") << json_string(d.name) << ": {\"value\": "
      << number(it == out.metrics.end() ? 0.0 : it->second)
      << ", \"unit\": " << json_string(d.unit) << "}";
    first = false;
  };
  if (trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  s << "}}";
  return s.str();
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::stod(next());
    else if (a == "--trace") o.trace = next() == "1";
    else if (a == "--agard") o.agard = next();
    else if (a == "--routes") o.routes = next();
    else if (a == "--out") o.out = next();
    else if (a == "--git-rev") o.git_rev = next();
    else if (a == "--corrupt-expected") o.corrupt = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

int main_impl(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return run_self_tests() == 0 ? 0 : 1;
  }
  const Options o = parse(argc, argv);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitizers = PERFBENCH_SANITIZERS;
  if (build_type != "Release" || sanitizers != "none") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build with sanitizers "
                 "'%s'; numbers need a plain Release build\n",
                 build_type.c_str(), sanitizers.c_str());
    return 3;
  }
  if (run_self_tests() != 0) return 4;

  Outcome out;
  if (o.workload == "daemon-routes") {
    DaemonOptions d;
    d.agard = o.agard;
    d.routes = o.routes;
    d.run_dir = o.out;
    d.seed = o.seed;
    d.seconds = o.seconds;
    d.trace = o.trace;
    d.corrupt_expected = o.corrupt;
    out = run_daemon_workload(d);
  } else {
    out = o.trace ? sim_traced(o) : sim_end_to_end(o);
  }
  std::cout << meta_json(o, out) << "\n" << result_json(out, o.trace) << std::endl;
  return out.correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
