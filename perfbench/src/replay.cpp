#include "replay.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "api/registry.hpp"
#include "client/backend_strategy.hpp"
#include "client/runner.hpp"
#include "client/workload.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/agar_node.hpp"
#include "core/fetch_coordinator.hpp"
#include "scenario/engine.hpp"

namespace perfbench {

namespace {

using namespace agar;
using ReadDone = std::function<void(const client::ReadResult&)>;

std::uint64_t thread_user_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_utime.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ru.ru_utime.tv_usec) * 1000ULL;
}

/// One client region's Agar deployment, composed as the agar registry entry
/// and client::AgarStrategy compose it.
struct Lane {
  client::ClientContext ctx;
  std::unique_ptr<client::FetchPolicy> policy;
  std::unique_ptr<core::FetchCoordinator> coord;
  std::unique_ptr<core::AgarNode> node;
  std::unique_ptr<scenario::ScenarioEngine> scenario;
  SharedBytes zero_payload;
  std::size_t budget = 0;
  std::size_t issued = 0;
};

struct Client {
  std::size_t lane = 0;
  client::Workload workload;
  Rng gaps;
  std::size_t remaining = 0;
  std::function<void()> next;
};

/// Mirror of ReadStrategy::BatchState.
struct Batch {
  ObjectKey key;
  std::uint32_t read_id = 0;
  std::size_t chunk_bytes = 0;
  std::size_t want = 0;
  std::size_t accepted = 0;
  std::size_t pending = 0;
  bool issued_all = false;
  std::vector<std::pair<ChunkIndex, RegionId>> on_path;
  std::size_t next_on_path = 0;
  std::vector<std::pair<ChunkIndex, RegionId>> fallbacks;
  std::size_t next_fallback = 0;
  std::size_t failed_arms = 0;
  std::size_t down_skips = 0;
  std::vector<ChunkIndex> fetched;
  client::ReadResult result;
  SimTimeMs start = 0.0;
  SimTimeMs extra = 0.0;
  std::function<void(client::ReadResult, std::vector<ChunkIndex>)> done;
};

class Replay {
 public:
  Replay(const api::ExperimentSpec& spec, Tracer& tracer, bool corrupt)
      : spec_(spec), config_(spec.experiment), tracer_(tracer),
        corrupt_(corrupt) {}

  ReplayResult run(std::size_t reads);

 private:
  void build_lane(std::size_t ri, RegionId region, std::size_t budget);
  void start_read(Lane& lane, const ObjectKey& key, std::uint32_t rid,
                  ReadDone done);
  void start_batch(Lane& lane, const std::shared_ptr<Batch>& st,
                   SimTimeMs cache_arm_ms);
  void batch_issue(Lane& lane, const std::shared_ptr<Batch>& st);
  void batch_arm_done(const std::shared_ptr<Batch>& st);
  void populate_async(Lane& lane, const ObjectKey& key, ChunkIndex index);
  SharedBytes population_payload(Lane& lane, const ObjectKey& key,
                                 ChunkIndex index, std::size_t chunk_size);
  bool verify_payload(Lane& lane, const ObjectKey& key,
                      const std::vector<ec::Chunk>& chunks);
  void record(const client::ReadResult& r);

  const api::ExperimentSpec& spec_;
  const client::ExperimentConfig& config_;
  Tracer& tracer_;
  bool corrupt_;
  std::unique_ptr<client::Deployment> deployment_;
  sim::EventLoop loop_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::uint32_t next_read_id_ = 1;
  ReplayResult out_;
};

void Replay::build_lane(std::size_t ri, RegionId region, std::size_t budget) {
  auto [system, params] = api::resolve_system(spec_.system, spec_.params);
  if (system != "agar") {
    throw std::invalid_argument("replay composes the agar read path only");
  }
  client::Deployment& dep = *deployment_;
  auto lane = std::make_unique<Lane>();
  Lane& l = *lane;
  l.budget = budget;
  loop_.set_scheduling_lane(static_cast<sim::EventLoop::LaneId>(ri));
  sim::Network& network = dep.lane_network(ri);
  network.set_max_outstanding_per_region(config_.max_outstanding_per_region);
  network.bind_loop(&loop_);

  // api::make_strategy_factory's client context and fetch policy.
  l.ctx.backend = &dep.backend();
  l.ctx.network = &network;
  l.ctx.codec = dep.codec_override_for(region);
  l.ctx.loop = &loop_;
  l.ctx.region = region;
  l.ctx.decode_ms_per_mb = config_.decode_ms_per_mb;
  l.ctx.verify_data = config_.verify_data;
  if (config_.fetch_policy != "none") {
    api::FetchPolicyContext fetch_ctx;
    fetch_ctx.network = &network;
    fetch_ctx.region = region;
    fetch_ctx.seed =
        dep.config().seed + 0x9E3779B97F4A7C15ULL * (region + 1) + 0xF7C4;
    l.policy = api::FetchPolicyRegistry::instance().create(
        config_.fetch_policy, fetch_ctx, config_.fetch_params);
  }
  l.coord = std::make_unique<core::FetchCoordinator>(&network);
  l.coord->set_transport([this, &l](const ChunkId&, RegionId from, RegionId to,
                                    std::size_t bytes,
                                    core::FetchCoordinator::Callback cb) {
    const Tracer::Scope span(tracer_, Layer::kNet);
    return l.policy != nullptr
               ? l.policy->begin_fetch(from, to, bytes, std::move(cb))
               : l.ctx.network->begin_fetch(from, to, bytes, std::move(cb));
  });

  // The agar registry entry's node parameters.
  core::AgarNodeParams p;
  p.region = region;
  p.cache_capacity_bytes = params.get_size("cache_bytes", 10_MB);
  p.reconfig_period_ms = config_.reconfig_period_ms;
  p.probes_per_region = params.get_size("probes_per_region", p.probes_per_region);
  p.cache_manager.candidate_weights = config_.agar_candidate_weights;
  p.cache_manager.cache_latency_ms = dep.network().model().params().cache_base_ms;
  p.cache_manager.planner = params.get_string("planner", "knapsack-dp");
  p.cache_manager.planner_params = params.scoped("planner.");
  p.monitor.estimator = params.get_string("monitor", "exact-ewma");
  p.monitor.estimator_params = params.scoped("monitor.");
  l.node = std::make_unique<core::AgarNode>(&dep.backend(), &network, p);
  l.node->warm_up();

  // AgarNode::attach_to_loop's event-driven control plane, with the
  // reconfiguration and the population downloads it starts traced.
  (void)l.node->region_manager().schedule_probe_pipeline(
      loop_, p.reconfig_period_ms, [this, &l] {
        {
          const Tracer::Scope span(tracer_, Layer::kControl);
          (void)l.node->cache_manager().reconfigure();
        }
        for (const auto& [key, option] :
             l.node->cache_manager().current().entries) {
          for (const ChunkIndex idx : option.chunks) populate_async(l, key, idx);
        }
      });

  if (!config_.scenario.empty()) {
    l.scenario = std::make_unique<scenario::ScenarioEngine>(
        config_.scenario, &network,
        [this, ri](const scenario::PopularityShift& shift) {
          for (auto& c : clients_) {
            if (c->lane == ri) c->workload.apply(shift);
          }
        });
    l.scenario->schedule(loop_);
  }

  auto begin_read = [this, &l](Client& c, ReadDone done) {
    ++l.issued;
    const std::uint32_t rid = next_read_id_++;
    ObjectKey key;
    {
      const Tracer::Scope span(tracer_, Layer::kWorkload, rid);
      key = c.workload.next_key();
    }
    start_read(l, key, rid, std::move(done));
  };
  const std::uint64_t run_seed = dep.config().seed;
  if (config_.arrival_rate_per_s > 0.0) {
    const SimTimeMs mean_gap_ms = 1000.0 / config_.arrival_rate_per_s;
    clients_.push_back(std::make_unique<Client>(Client{
        ri,
        client::Workload(config_.workload, config_.deployment.num_objects,
                         client::workload_stream_seed(run_seed, ri, 0)),
        Rng(client::workload_stream_seed(run_seed, ri, 7777)), budget, {}}));
    Client* c = clients_.back().get();
    scenario::ScenarioEngine* const se = l.scenario.get();
    c->next = [this, c, begin_read, mean_gap_ms, se] {
      if (c->remaining == 0) return;
      --c->remaining;
      begin_read(*c, [this](const client::ReadResult& r) { record(r); });
      if (c->remaining > 0) {
        const double u = c->gaps.next_double();
        const double mult = se != nullptr ? se->arrival_multiplier(loop_.now()) : 1.0;
        loop_.schedule_in(-mean_gap_ms * std::log(1.0 - u) / mult, c->next);
      }
    };
    loop_.schedule_in(0.0, c->next);
  } else {
    const std::size_t per_region = std::max<std::size_t>(1, config_.num_clients);
    for (std::size_t ci = 0; ci < per_region; ++ci) {
      clients_.push_back(std::make_unique<Client>(Client{
          ri,
          client::Workload(config_.workload, config_.deployment.num_objects,
                           client::workload_stream_seed(run_seed, ri, ci)),
          Rng(0), 0, {}}));
      Client* c = clients_.back().get();
      c->next = [this, &l, c, begin_read] {
        if (l.issued >= l.budget) return;
        begin_read(*c, [this, c](const client::ReadResult& r) {
          record(r);
          c->next();
        });
      };
      loop_.schedule_in(0.0, c->next);
    }
  }
  lanes_.push_back(std::move(lane));
}

void Replay::record(const client::ReadResult& r) {
  ++out_.reads;
  if (r.failed) {
    ++out_.failed;
    return;
  }
  out_.latency_sum_ms += r.latency_ms;
  if (r.full_hit) ++out_.full_hits;
  if (r.partial_hit && !r.full_hit) ++out_.partial_hits;
}

void Replay::start_read(Lane& lane, const ObjectKey& key, std::uint32_t rid,
                        ReadDone done) {
  const Tracer::Scope read_span(tracer_, Layer::kClient, rid);
  core::AgarNode& node = *lane.node;
  const store::BackendCluster& backend = *lane.ctx.backend;

  // AgarNode::plan_read, split at its two layer calls.
  double overhead = 0.0;
  {
    const Tracer::Scope span(tracer_, Layer::kMonitor, rid);
    overhead = node.request_monitor().record_access(key);
  }
  core::ReadPlan plan;
  {
    const Tracer::Scope span(tracer_, Layer::kPlan, rid);
    const auto& config = node.cache_manager().current();
    plan = core::plan_chunk_sources(
        backend, node.region_manager(), node.cache(),
        [&config](const ObjectKey& k, ChunkIndex idx) {
          return config.contains_chunk(k, idx);
        },
        key);
  }
  plan.monitor_overhead_ms = overhead;
  out_.plan_cache_chunks += plan.from_cache.size();
  out_.plan_backend_chunks += plan.from_backend.size();

  // ReadStrategy::start_plan.
  const store::ObjectInfo info = backend.object_info(key);
  const std::size_t k = backend.codec().k();
  client::ReadResult partial;
  std::vector<SimTimeMs> cache_latencies;
  auto collected = std::make_shared<std::vector<ec::Chunk>>();
  for (const ChunkIndex idx : plan.from_cache) {
    std::optional<SharedBytes> hit;
    {
      const Tracer::Scope span(tracer_, Layer::kCache, rid);
      hit = node.cache().get(ChunkId{key, idx}.cache_key());
    }
    if (!hit.has_value()) continue;
    cache_latencies.push_back(lane.ctx.network->cache_fetch(info.chunk_size));
    ++partial.cache_chunks;
    if (lane.ctx.verify_data) collected->push_back(ec::Chunk{idx, *hit});
  }

  auto st = std::make_shared<Batch>();
  st->key = key;
  st->read_id = rid;
  st->on_path = plan.from_backend;
  for (const auto& cand : client::chunks_by_expected_latency(lane.ctx, key)) {
    const bool planned =
        std::any_of(plan.from_backend.begin(), plan.from_backend.end(),
                    [&](const auto& p) { return p.first == cand.first; }) ||
        std::any_of(plan.from_cache.begin(), plan.from_cache.end(),
                    [&](ChunkIndex i) { return i == cand.first; });
    if (!planned) st->fallbacks.push_back(cand);
  }
  st->want = k - partial.cache_chunks;
  st->chunk_bytes = info.chunk_size;
  st->result = partial;
  st->start = loop_.now();
  st->extra = lane.ctx.decode_ms_per_mb * static_cast<double>(info.object_size) /
                  static_cast<double>(1_MB) +
              plan.monitor_overhead_ms;
  st->done = [this, &lane, key, rid, plan, collected, k, info,
              done = std::move(done)](client::ReadResult result,
                                      std::vector<ChunkIndex> fetched) {
    const Tracer::Scope span(tracer_, Layer::kClient, rid);
    result.backend_chunks = fetched.size();
    result.full_hit = result.cache_chunks == k;
    result.partial_hit = result.cache_chunks > 0;
    for (const ChunkIndex idx : plan.populate_after_read) {
      SharedBytes payload = population_payload(lane, key, idx, info.chunk_size);
      if (lane.ctx.verify_data && payload.empty()) continue;
      const Tracer::Scope put(tracer_, Layer::kCache, rid);
      (void)lane.node->cache().put(ChunkId{key, idx}.cache_key(),
                                   std::move(payload));
    }
    for (const auto& [idx, region] : plan.async_populate) {
      (void)region;
      populate_async(lane, key, idx);
    }
    if (lane.ctx.verify_data && !result.failed) {
      for (const ChunkIndex idx : fetched) {
        std::optional<SharedBytes> bytes;
        {
          const Tracer::Scope get(tracer_, Layer::kStore, rid);
          bytes = lane.ctx.backend->get_chunk(ChunkId{key, idx});
        }
        if (bytes.has_value()) collected->push_back(ec::Chunk{idx, *bytes});
      }
      result.verified = verify_payload(lane, key, *collected);
      if (result.verified) {
        ++out_.verified;
      } else {
        ++out_.verify_mismatches;
      }
      out_.decoded_bytes += info.object_size;
    }
    done(result);
  };
  start_batch(lane, st,
              cache_latencies.empty()
                  ? -1.0
                  : sim::Network::parallel_batch_ms(cache_latencies));
}

void Replay::start_batch(Lane& lane, const std::shared_ptr<Batch>& st,
                         SimTimeMs cache_arm_ms) {
  if (cache_arm_ms >= 0.0) {
    ++st->pending;
    loop_.schedule_in(cache_arm_ms, [this, st] { batch_arm_done(st); });
  }
  batch_issue(lane, st);
  st->issued_all = true;
  if (st->pending == 0) {
    loop_.schedule_in(0.0, [this, st] { batch_arm_done(st); });
    ++st->pending;
  }
}

void Replay::batch_issue(Lane& lane, const std::shared_ptr<Batch>& st) {
  auto try_issue = [&](const std::pair<ChunkIndex, RegionId>& target) {
    const auto [index, region] = target;
    core::FetchStart started;
    {
      const Tracer::Scope span(tracer_, Layer::kFetch, st->read_id);
      started = lane.coord->fetch(
          ChunkId{st->key, index}, lane.ctx.region, region, st->chunk_bytes,
          [this, &lane, st, index](std::optional<SimTimeMs> latency) {
            const Tracer::Scope arm(tracer_, Layer::kClient, st->read_id);
            if (latency.has_value()) {
              st->fetched.push_back(index);
            } else {
              ++st->failed_arms;
              --st->accepted;
              batch_issue(lane, st);
            }
            batch_arm_done(st);
          });
    }
    if (started == core::FetchStart::kDown) {
      ++st->down_skips;
      return;
    }
    if (started == core::FetchStart::kJoined) ++st->result.coalesced_chunks;
    ++st->accepted;
    ++st->pending;
  };
  while (st->accepted < st->want && st->next_on_path < st->on_path.size()) {
    try_issue(st->on_path[st->next_on_path++]);
  }
  while (st->accepted < st->want && st->next_fallback < st->fallbacks.size()) {
    try_issue(st->fallbacks[st->next_fallback++]);
  }
}

void Replay::batch_arm_done(const std::shared_ptr<Batch>& st) {
  --st->pending;
  if (st->pending != 0 || !st->issued_all) return;
  st->result.failed = st->fetched.size() < st->want;
  st->result.degraded =
      !st->result.failed && (st->failed_arms > 0 || st->down_skips > 0);
  loop_.schedule_in(st->result.failed ? 0.0 : st->extra, [this, st] {
    st->result.latency_ms = loop_.now() - st->start;
    st->done(std::move(st->result), std::move(st->fetched));
  });
}

SharedBytes Replay::population_payload(Lane& lane, const ObjectKey& key,
                                       ChunkIndex index,
                                       std::size_t chunk_size) {
  if (lane.ctx.verify_data) {
    const Tracer::Scope span(tracer_, Layer::kStore);
    const auto bytes = lane.ctx.backend->get_chunk(ChunkId{key, index});
    return bytes.has_value() ? *bytes : SharedBytes{};
  }
  if (lane.zero_payload.size() != chunk_size) {
    lane.zero_payload = SharedBytes(Bytes(chunk_size, 0));
  }
  return lane.zero_payload;
}

void Replay::populate_async(Lane& lane, const ObjectKey& key,
                            ChunkIndex index) {
  const std::string ck = ChunkId{key, index}.cache_key();
  {
    const Tracer::Scope span(tracer_, Layer::kCache);
    if (lane.node->cache().contains(ck)) return;
  }
  const store::BackendCluster& backend = *lane.ctx.backend;
  const store::ObjectInfo info = backend.object_info(key);
  const RegionId region =
      backend.placement().region_of(key, index, backend.num_regions());
  const Tracer::Scope span(tracer_, Layer::kFetch);
  (void)lane.coord->fetch(
      ChunkId{key, index}, lane.ctx.region, region, info.chunk_size,
      [this, &lane, key, index,
       chunk_size = info.chunk_size](std::optional<SimTimeMs> latency) {
        if (!latency.has_value()) return;
        SharedBytes payload = population_payload(lane, key, index, chunk_size);
        if (lane.ctx.verify_data && payload.empty()) return;
        const Tracer::Scope put(tracer_, Layer::kCache);
        (void)lane.node->cache().put(ChunkId{key, index}.cache_key(),
                                     std::move(payload));
      });
}

bool Replay::verify_payload(Lane& lane, const ObjectKey& key,
                            const std::vector<ec::Chunk>& chunks) {
  const store::ObjectInfo info = lane.ctx.backend->object_info(key);
  const ec::ObjectCodec& codec =
      lane.ctx.codec != nullptr ? *lane.ctx.codec : lane.ctx.backend->codec();
  Bytes decoded;
  {
    const Tracer::Scope span(tracer_, Layer::kDecode);
    decoded = codec.decode(info.object_size, chunks);
  }
  const Tracer::Scope span(tracer_, Layer::kVerify);
  Bytes expected = deterministic_payload(key, info.object_size);
  if (corrupt_ && !expected.empty()) expected[expected.size() / 2] ^= 0x5A;
  return decoded == expected;
}

ReplayResult Replay::run(std::size_t reads) {
  client::DeploymentConfig dep_config = config_.deployment;
  dep_config.store_payloads = config_.verify_data;
  deployment_ = std::make_unique<client::Deployment>(dep_config);
  const std::vector<RegionId> regions = config_.effective_client_regions();
  deployment_->bind_lanes(regions);
  loop_.reserve(1024);
  for (std::size_t ri = 0; ri < regions.size(); ++ri) {
    build_lane(ri, regions[ri],
               reads / regions.size() + (ri == 0 ? reads % regions.size() : 0));
  }

  const std::uint64_t events_before = loop_.events_executed();
  const std::uint64_t u0 = thread_user_ns();
  const std::uint64_t t0 = now_ns();
  while (out_.reads < reads) {
    const Tracer::Scope span(tracer_, Layer::kLoop);
    if (!loop_.step()) break;
  }
  out_.wall_ns = now_ns() - t0;
  out_.user_ns = thread_user_ns() - u0;
  out_.events = loop_.events_executed() - events_before;
  return out_;
}

}  // namespace

ReplayResult replay_read_path(const api::ExperimentSpec& spec,
                              std::size_t reads, Tracer& tracer,
                              bool corrupt_expected) {
  Replay replay(spec, tracer, corrupt_expected);
  return replay.run(reads);
}

}  // namespace perfbench
