#include "daemon_workload.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "client/report.hpp"
#include "client/workload.hpp"
#include "common/bytes.hpp"
#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "daemon/routing.hpp"
#include "daemon/service.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace agar;

/// The first two CPUs this process may run on, or none on a 1-CPU host.
/// The daemon is confined to them and each connection's client thread is
/// pinned to one: every round trip then stays on one CPU pair, which keeps
/// the closed-loop rate from depending on where the scheduler happened to
/// put the four threads.
std::vector<int> cpu_pair() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.size() < 2) cpus.clear();
  return cpus;
}

/// Best effort: a refused affinity leaves the thread unpinned.
void pin(pid_t tid, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)::sched_setaffinity(tid, sizeof(set), &set);
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// One agard child process. The destructor stops and reaps it on every
/// path, so no daemon outlives the benchmark.
class Agard {
 public:
  Agard(const DaemonOptions& o, const std::string& socket)
      : socket_(socket), started_ns_(now_ns()) {
    (void)::unlink(socket_.c_str());
    const std::string log = o.run_dir + "/agard.log";
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Die with the benchmark even if it is killed before it can reap us.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      pin(0, cpu_pair());
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      std::vector<std::string> args = {o.agard, "--config", o.routes,
                                       "--listen", socket_, "--no-sighup"};
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  Agard(const Agard&) = delete;
  Agard& operator=(const Agard&) = delete;

  ~Agard() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    (void)::unlink(socket_.c_str());
  }

  /// Seconds from spawn until the first PING is answered OK.
  double wait_ready() {
    const std::uint64_t deadline = now_ns() + 60'000'000'000ULL;
    while (now_ns() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("agard exited during start-up");
      }
      try {
        auto c = daemon::DaemonClient::connect_uds(socket_);
        if (c.ping().status == daemon::Status::kOk) {
          return seconds_since(started_ns_);
        }
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    throw std::runtime_error("agard did not answer PING");
  }

  /// Peak resident set (VmHWM) in MB, and cumulative CPU/fault counters.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;
      }
    }
    return 0.0;
  }
  struct Usage {
    double user_s = 0, sys_s = 0, minor_faults = 0;
  };
  [[nodiscard]] Usage usage() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::istringstream fields(text.substr(text.rfind(')') + 2));
    std::vector<std::string> f;
    for (std::string s; fields >> s;) f.push_back(s);
    // Fields after "(comm)": state is index 0, minflt 7, utime 11, stime 12.
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    Usage u;
    if (f.size() > 12) {
      u.minor_faults = std::stod(f[7]);
      u.user_s = std::stod(f[11]) / tick;
      u.sys_s = std::stod(f[12]) / tick;
    }
    return u;
  }

  /// SHUTDOWN over the socket, then reap.
  void shutdown() {
    try {
      auto c = daemon::DaemonClient::connect_uds(socket_);
      (void)c.shutdown();
    } catch (const std::exception&) {
    }
    const std::uint64_t deadline = now_ns() + 10'000'000'000ULL;
    while (pid_ > 0 && now_ns() < deadline) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::string socket_;
  std::uint64_t started_ns_;
  pid_t pid_ = -1;
};

/// One closed-loop connection: its route tag and its key stream.
struct Conn {
  std::string tag;
  client::Workload stream;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<ObjectKey> keys;  ///< every key sent, in order
  std::vector<double> rtt_us;   ///< measured phase only
};

constexpr std::size_t kSetupSamples = 21;  ///< agard starts timed for setup_s
constexpr std::size_t kWarmRequests = 20000;  ///< per connection, unmeasured
constexpr std::size_t kReplayedRequests = 20000;  ///< per connection, traced

bool wants_payload(std::uint64_t n) { return n % 10 == 9; }

/// Send `count` requests (or until `deadline_ns` when count is 0).
void drive(daemon::DaemonClient& client, Conn& conn,
           const std::map<ObjectKey, std::string>& expected, std::size_t count,
           std::uint64_t deadline_ns, bool record_rtt) {
  for (std::size_t i = 0; count == 0 ? now_ns() < deadline_ns : i < count; ++i) {
    const ObjectKey key = conn.stream.next_key();
    const bool payload = wants_payload(conn.sent);
    const std::uint64_t t0 = now_ns();
    const daemon::GetResponse r = client.get(conn.tag, key, payload);
    const std::uint64_t t1 = now_ns();
    ++conn.sent;
    conn.keys.push_back(key);
    if (record_rtt) conn.rtt_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    bool ok = r.status == daemon::Status::kOk;
    if (ok && payload) ok = r.payload == expected.at(key);
    if (!ok) ++conn.failed;
  }
}

/// In-process copy of the daemon's routes, fed the same per-route streams.
struct Replica {
  daemon::DaemonConfig config;
  std::vector<std::unique_ptr<daemon::ServiceInstance>> instances;

  explicit Replica(const std::string& routes)
      : config(daemon::load_daemon_config(routes)) {
    for (const auto& rule : config.routes) {
      instances.push_back(std::make_unique<daemon::ServiceInstance>(rule));
    }
  }

  daemon::ServiceInstance& route(const std::string& tag, const ObjectKey& key) {
    const auto i = daemon::match_route(config.routes, tag, key);
    if (!i.has_value()) throw std::runtime_error("no route for " + key);
    return *instances[*i];
  }

  /// Serve keys [from, to) of a connection the way the socket path does:
  /// request encode/decode, serve_get, response encode/decode.
  void serve(Tracer& tracer, const Conn& conn, std::size_t from,
             std::size_t to) {
    for (std::size_t n = from; n < to; ++n) {
      const ObjectKey& key = conn.keys[n];
      const auto rid = static_cast<std::uint32_t>(n + 1);
      daemon::GetRequest req;
      {
        const Tracer::Scope span(tracer, Layer::kDaemonCodec, rid);
        req = daemon::decode_get_request(daemon::encode_get_request(
            daemon::GetRequest{conn.tag, key, wants_payload(n)}));
      }
      daemon::ServiceInstance& inst = route(req.tag, req.key);
      daemon::GetResponse resp;
      {
        const Tracer::Scope span(tracer, Layer::kDaemonServe, rid);
        resp = inst.serve_get(req.key, req.want_payload);
      }
      const Tracer::Scope span(tracer, Layer::kDaemonCodec, rid);
      (void)daemon::decode_get_response(daemon::encode_get_response(resp));
    }
  }

  std::string results_json() {
    std::vector<client::ExperimentResult> results;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      client::ExperimentResult r;
      r.label = config.routes[i].spec.label();
      r.runs.push_back(instances[i]->snapshot());
      results.push_back(std::move(r));
    }
    return client::results_json(results);
  }
};

}  // namespace

Outcome run_daemon_workload(const DaemonOptions& o) {
  Outcome out;
  const std::string socket =
      o.run_dir + "/agard-" + std::to_string(::getpid()) + ".sock";

  // Set-up: start to first successful PING, on fresh daemons. Unlike the
  // simulator workloads' figures, the daemon's are not scaled by the host
  // calibration (calibrate.hpp): its round trips are dominated by process
  // wake-ups the compute loop does not track, and scaling them widened
  // their run-to-run spread.
  std::vector<double> setups;
  for (std::size_t i = 1; i < kSetupSamples; ++i) {
    Agard cold(o, socket);
    setups.push_back(cold.wait_ready());
    cold.shutdown();
  }
  Agard agard(o, socket);
  setups.push_back(agard.wait_ready());

  const daemon::DaemonConfig config = daemon::load_daemon_config(o.routes);
  std::map<ObjectKey, std::string> expected;
  std::size_t num_objects = 0;
  for (const auto& rule : config.routes) {
    const auto& dep = rule.spec.experiment.deployment;
    num_objects = std::max(num_objects, dep.num_objects);
    for (std::size_t i = 0; i < dep.num_objects; ++i) {
      const ObjectKey key = "object" + std::to_string(i);
      const Bytes bytes = deterministic_payload(key, dep.object_size_bytes);
      std::string& e = expected[key];
      e.assign(bytes.begin(), bytes.end());
      if (o.corrupt_expected && !e.empty()) e[e.size() / 2] ^= 0x5A;
    }
  }

  // Two connections: tag "hot" routes to the Agar rule, the untagged
  // stream falls through to the default rule.
  std::vector<Conn> conns;
  const char* tags[] = {"hot", ""};
  for (std::size_t c = 0; c < 2; ++c) {
    conns.push_back(Conn{tags[c],
                         client::Workload(client::WorkloadSpec::zipfian(1.1),
                                          num_objects,
                                          client::workload_stream_seed(o.seed, c, 0)),
                         0, 0, {}, {}});
  }
  std::vector<daemon::DaemonClient> clients;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    clients.push_back(daemon::DaemonClient::connect_uds(socket));
  }
  const std::vector<int> cpus = cpu_pair();
  auto phase = [&](std::size_t count, std::uint64_t deadline, bool rtt) {
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(conns.size());
    for (std::size_t c = 0; c < conns.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          if (cpus.size() == 2) pin(0, {cpus[c % 2]});
          drive(clients[c], conns[c], expected, count, deadline, rtt);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  };

  // Warm-up phase of a fixed length: its virtual results are exact for the
  // seed and must equal an in-process replica's, byte for byte.
  phase(kWarmRequests, 0, false);
  const std::string daemon_results =
      clients[0].metrics(/*results_only=*/true).text;
  const double peak_rss = agard.peak_rss_mb();  // after a fixed request count
  // The measured phase, in parts of about a second whose median rate is
  // reported (robust to a stall in one part).
  const Agard::Usage u0 = agard.usage();
  const auto parts = static_cast<std::size_t>(std::max(1.0, std::round(o.seconds)));
  std::vector<double> rates;
  for (std::size_t k = 0; k < parts; ++k) {
    std::uint64_t before = 0;
    for (const Conn& c : conns) before += c.sent;
    const std::uint64_t t0 = now_ns();
    phase(0, t0 + static_cast<std::uint64_t>(o.seconds / parts * 1e9), true);
    const double part_s = seconds_since(t0);
    std::uint64_t after = 0;
    for (const Conn& c : conns) after += c.sent;
    rates.push_back(static_cast<double>(after - before) / part_s);
  }
  const Agard::Usage u1 = agard.usage();
  clients.clear();
  agard.shutdown();

  std::uint64_t measured = 0;
  std::vector<double> rtts;
  for (const Conn& c : conns) {
    out.attempted += c.sent;
    out.failed += c.failed;
    measured += c.sent - kWarmRequests;
    rtts.insert(rtts.end(), c.rtt_us.begin(), c.rtt_us.end());
  }
  std::sort(rtts.begin(), rtts.end());

  Tracer off(false);
  Replica replica(o.routes);
  for (const Conn& c : conns) replica.serve(off, c, 0, kWarmRequests);
  if (comparable(replica.results_json()) !=
      comparable(daemon_results)) {
    std::fprintf(stderr, "perfbench: daemon metrics differ from the in-process replica\n");
    out.correct = false;
  }
  if (out.failed != 0) out.correct = false;

  client::ExperimentResult hot;
  hot.runs.push_back(replica.route("hot", conns[0].keys.front()).snapshot());
  auto& m = out.metrics;
  m["reads_per_s"] = median(rates);
  m["virt_mean_ms"] = hot.mean_latency_ms();
  m["virt_p99_ms"] = hot.percentile_ms(99);
  m["hit_ratio"] = hot.hit_ratio();
  m["setup_s"] = median(setups);
  m["peak_rss_mb"] = peak_rss;
  if (tail_percentile(rtts.size()) < 99.0) out.correct = false;
  if (!o.trace) return out;

  // Per-layer: RTTs from the socket run, serve_get and frame codec self
  // times from an in-process replica continuing the same streams for up to
  // kReplayedRequests per connection, traced, between two untraced ones
  // for the overhead.
  const client::RunResult& hot_run = hot.runs.front();
  m["daemon.rtt_p50_us"] = percentile(rtts, 50);
  m["daemon.rtt_p99_us"] = percentile(rtts, 99);
  m["daemon.rtt_samples"] = static_cast<double>(rtts.size());
  m["control.reconfigs"] = static_cast<double>(hot_run.reconfigurations);
  m["cache.hit_ratio"] = hot_run.cache_stats.hit_rate();
  m["cache.evictions"] = static_cast<double>(hot_run.cache_stats.evictions);
  const double cpu_s = (u1.user_s - u0.user_s) + (u1.sys_s - u0.sys_s);
  m["process.cpu_us_per_read"] = cpu_s * 1e6 / static_cast<double>(measured);
  m["process.sys_frac"] = cpu_s > 0 ? (u1.sys_s - u0.sys_s) / cpu_s : 0.0;
  m["process.minor_faults_per_read"] =
      (u1.minor_faults - u0.minor_faults) / static_cast<double>(measured);

  auto timed_tail = [&](Tracer& tracer) {
    Tracer none(false);
    Replica r(o.routes);
    for (const Conn& c : conns) r.serve(none, c, 0, kWarmRequests);
    const std::uint64_t start = now_ns();
    for (const Conn& c : conns) {
      r.serve(tracer, c, kWarmRequests,
              std::min(c.keys.size(), kWarmRequests + kReplayedRequests));
    }
    return now_ns() - start;
  };
  const std::uint64_t before_ns = timed_tail(off);
  Tracer tracer(true, 2 * kReplayedRequests * 3);
  const std::uint64_t traced_ns = timed_tail(tracer);
  const std::uint64_t untraced_ns = (before_ns + timed_tail(off)) / 2;
  const LayerTotals totals = layer_totals(tracer.spans());
  const double serve_us = totals.ns_per_call(Layer::kDaemonServe) / 1e3;
  const double codec_ns_per_req =
      2.0 * totals.ns_per_call(Layer::kDaemonCodec);
  double rtt_mean = 0;
  for (const double r : rtts) rtt_mean += r;
  rtt_mean /= static_cast<double>(std::max<std::size_t>(rtts.size(), 1));
  m["daemon.serve_get_us"] = serve_us;
  m["daemon.frame_codec_ns"] = codec_ns_per_req;
  m["daemon.socket_tax_us"] = rtt_mean - serve_us - codec_ns_per_req / 1e3;
  m["trace.coverage"] =
      static_cast<double>(totals.total_self_ns()) / static_cast<double>(traced_ns);
  m["trace.overhead_frac"] =
      static_cast<double>(traced_ns) / static_cast<double>(untraced_ns) - 1.0;
  m["trace.spans"] = static_cast<double>(tracer.spans().size());
  tracer.write_tsv(o.run_dir + "/daemon-routes.spans.tsv");
  return out;
}

}  // namespace perfbench
