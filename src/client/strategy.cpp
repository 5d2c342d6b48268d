#include "client/strategy.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "client/backend_strategy.hpp"
#include "collab/collab.hpp"

namespace agar::client {

namespace {

const store::ObjectTable* objects_of(const ClientContext& ctx) {
  if (ctx.backend == nullptr || ctx.network == nullptr) {
    throw std::invalid_argument("ReadStrategy: null backend/network");
  }
  return &ctx.backend->objects();
}

}  // namespace

ReadStrategy::ReadStrategy(ClientContext ctx)
    : ctx_(ctx), fetcher_(ctx.network, objects_of(ctx)) {
  if (ctx_.fetch_policy != nullptr) {
    // Install the policy *under* the coalescing table: one in-flight entry
    // per chunk regardless of how many retries/hedges the policy spends.
    fetcher_.set_transport(
        [policy = ctx_.fetch_policy.get()](
            const ChunkRef&, RegionId from, RegionId to, std::size_t bytes,
            core::FetchCoordinator::Callback cb) {
          return policy->begin_fetch(from, to, bytes, std::move(cb));
        });
  }
}

collab::PeerInfo ReadStrategy::collab_info() { return {}; }

void ReadStrategy::enable_collab(CollabRoute route, CollabDone done) {
  // Layering per wire fetch: coalescing table -> collab routing (pick the
  // peer or the home region) -> fetch policy (retry/hedge/timeout against
  // the chosen target) -> network. The accounting wrapper observes the
  // final outcome, after any retries, so a peer hit means the transfer
  // actually landed.
  fetcher_.set_transport(
      [this, route = std::move(route), done = std::move(done)](
          const ChunkRef& chunk, RegionId from, RegionId to,
          std::size_t bytes, core::FetchCoordinator::Callback cb) {
        const RegionId target = route ? route(chunk, to, bytes) : to;
        core::FetchCoordinator::Callback wrapped =
            [done, target, to, bytes,
             cb = std::move(cb)](std::optional<SimTimeMs> latency) {
              if (done) done(target, to, bytes, latency.has_value());
              cb(latency);
            };
        if (ctx_.fetch_policy != nullptr) {
          return ctx_.fetch_policy->begin_fetch(from, target, bytes,
                                                std::move(wrapped));
        }
        return ctx_.network->begin_fetch(from, target, bytes,
                                         std::move(wrapped));
      });
}

ReadResult ReadStrategy::read(ObjectId id) {
  if (ctx_.loop == nullptr) {
    throw std::logic_error("ReadStrategy::read: no event loop attached");
  }
  ReadResult out;
  bool done = false;
  start_read(id, [&](const ReadResult& r) {
    out = r;
    done = true;
  });
  while (!done && ctx_.loop->step()) {
  }
  return out;
}

// ---------------------------------------------------------- planned reads

/// One read in flight: its plan, the backend arms issued so far and the
/// result being assembled.
struct ReadStrategy::BatchState {
  ObjectId id = 0;
  std::size_t object_size = 0;
  std::size_t chunk_size = 0;
  core::ReadPlan plan;
  cache::CacheEngine* cache = nullptr;
  std::size_t want = 0;      // backend arms we aim to keep in flight
  std::size_t accepted = 0;  // backend arms issued so far
  std::size_t pending = 0;   // arms (backend + cache) not yet landed
  bool issued_all = false;   // initial issue pass finished
  Candidates on_path;
  std::size_t next_on_path = 0;
  Candidates fallbacks;
  std::size_t next_fallback = 0;
  std::size_t failed_arms = 0;  // arms whose fetch came back nullopt
  std::size_t down_skips = 0;   // arms refused synchronously (region down)
  std::vector<ChunkIndex> fetched;
  std::vector<ec::Chunk> collected;  // verify mode: the cache hits
  ReadResult result;
  SimTimeMs start = 0.0;
  SimTimeMs extra = 0.0;  // decode + monitor, after the last arrival
  ReadCallback done;
};

void ReadStrategy::start_plan(ObjectId id, const Candidates& candidates,
                              core::ReadPlan plan, cache::CacheEngine* cache,
                              ReadCallback done) {
  sim::EventLoop* const loop = ctx_.loop;
  if (loop == nullptr) {
    throw std::logic_error("ReadStrategy: start_read requires a loop");
  }
  auto st = std::make_shared<BatchState>();
  st->id = id;
  st->object_size = ctx_.backend->object_size(id);
  st->chunk_size = ctx_.backend->chunk_size(id);
  st->cache = cache;
  st->start = loop->now();
  st->done = std::move(done);

  // Cache-resident chunks, fetched in parallel with the backend arms; a
  // chunk the cache no longer holds is fetched from its home region.
  st->on_path = plan.from_backend;
  std::vector<SimTimeMs> cache_latencies;
  for (const ChunkIndex idx : plan.from_cache) {
    const auto hit = cache != nullptr ? cache->get(ctx_.backend->chunk(id, idx))
                                      : std::nullopt;
    if (!hit.has_value()) {
      st->on_path.push_back(*std::find_if(
          candidates.begin(), candidates.end(),
          [idx](const auto& cand) { return cand.first == idx; }));
      continue;
    }
    cache_latencies.push_back(ctx_.network->cache_fetch(st->chunk_size));
    ++st->result.cache_chunks;
    if (ctx_.verify_data) {
      st->collected.push_back(ec::Chunk{idx, *hit});  // shared, no copy
    }
  }

  // Every unplanned chunk (cheapest-first) is a fallback in case a region
  // is down.
  for (const auto& cand : candidates) {
    const bool planned =
        std::any_of(plan.from_backend.begin(), plan.from_backend.end(),
                    [&](const auto& p) { return p.first == cand.first; }) ||
        std::any_of(plan.from_cache.begin(), plan.from_cache.end(),
                    [&](ChunkIndex i) { return i == cand.first; });
    if (!planned) st->fallbacks.push_back(cand);
  }
  st->want = ctx_.backend->codec().k() - st->result.cache_chunks;
  st->extra = ctx_.decode_ms_per_mb *
                  static_cast<double>(st->object_size) /
                  static_cast<double>(1_MB) +
              plan.monitor_overhead_ms;
  st->plan = std::move(plan);

  if (!cache_latencies.empty()) {
    ++st->pending;
    loop->schedule_in(sim::Network::parallel_batch_ms(cache_latencies),
                      [this, st] { batch_arm_done(st); });
  }
  batch_issue(st);
  st->issued_all = true;
  if (st->pending == 0) {
    // Nothing to wait for (all regions down, or a zero-latency full hit):
    // complete asynchronously so `done` still fires on the loop.
    loop->schedule_in(0.0, [this, st] { batch_arm_done(st); });
    ++st->pending;
  }
}

void ReadStrategy::batch_issue(const std::shared_ptr<BatchState>& st) {
  auto try_issue = [&](const std::pair<ChunkIndex, RegionId>& target) {
    const auto [index, region] = target;
    const core::FetchStart started = fetcher_.fetch(
        ctx_.backend->chunk(st->id, index), ctx_.region, region,
        st->chunk_size,
        [this, st, index](std::optional<SimTimeMs> latency) {
          if (latency.has_value()) {
            st->fetched.push_back(index);
          } else {
            // Failed in flight (outage, queue abort, or the fetch policy
            // exhausted its retries): replace with the next fallback.
            ++st->failed_arms;
            --st->accepted;
            batch_issue(st);
          }
          batch_arm_done(st);
        });
    if (started == core::FetchStart::kDown) {
      ++st->down_skips;
      return false;  // region down right now; caller falls back
    }
    if (started == core::FetchStart::kJoined) ++st->result.coalesced_chunks;
    ++st->accepted;
    ++st->pending;
    return true;
  };

  while (st->accepted < st->want && st->next_on_path < st->on_path.size()) {
    (void)try_issue(st->on_path[st->next_on_path++]);
  }
  // Failure fallback: pull replacement chunks (typically parity from the
  // regions the planner discarded) until the batch is complete.
  while (st->accepted < st->want && st->next_fallback < st->fallbacks.size()) {
    (void)try_issue(st->fallbacks[st->next_fallback++]);
  }
}

void ReadStrategy::batch_arm_done(const std::shared_ptr<BatchState>& st) {
  --st->pending;
  if (st->pending != 0 || !st->issued_all) return;
  sim::EventLoop* const loop = ctx_.loop;
  // Every fallback exhausted before `want` backend arms landed (a mid-run
  // outage took out the remaining sources): the read cannot assemble k
  // chunks. Complete it as a counted failure — no decode happens, so no
  // decode time is charged and no decoder throws from a completion event.
  st->result.failed = st->fetched.size() < st->want;
  // A read that assembled k chunks but not the planned k is a degraded
  // read: it succeeded off its fallback path (and paid for it in latency).
  st->result.degraded =
      !st->result.failed && (st->failed_arms > 0 || st->down_skips > 0);
  loop->schedule_in(st->result.failed ? 0.0 : st->extra, [this, loop, st] {
    st->result.latency_ms = loop->now() - st->start;
    finish_read(*st);
  });
}

void ReadStrategy::finish_read(BatchState& st) {
  ReadResult& result = st.result;
  const ObjectId id = st.id;
  result.backend_chunks = st.fetched.size();
  result.full_hit = result.cache_chunks == ctx_.backend->codec().k();
  result.partial_hit = result.cache_chunks > 0;

  // Populate the cache per plan (asynchronous in the prototype: a separate
  // thread pool performs the writes, so no latency charged). A chunk that
  // landed meanwhile (a population fetch, or a hit that kept its recency)
  // is not written again.
  for (const ChunkIndex idx : st.plan.populate_after_read) {
    const ChunkRef chunk = ctx_.backend->chunk(id, idx);
    if (st.cache->contains(chunk)) continue;
    SharedBytes payload = population_payload(chunk, st.chunk_size);
    if (ctx_.verify_data && payload.empty()) continue;
    st.cache->put(chunk, std::move(payload));
  }
  for (const auto& [idx, region] : st.plan.async_populate) {
    (void)region;
    // Population fetch crosses the network as a background event (traffic
    // counted; coalesces with any in-flight read of the same chunk); its
    // latency is off the read path.
    populate_chunk_async(id, idx, *st.cache);
  }

  if (ctx_.verify_data && !result.failed) {
    for (const ChunkIndex idx : st.fetched) {
      const auto bytes = ctx_.backend->get_chunk(ctx_.backend->chunk(id, idx));
      if (bytes.has_value()) st.collected.push_back(ec::Chunk{idx, *bytes});
    }
    result.verified = verify_payload(id, st.collected);
  }
  st.done(result);
}

// ------------------------------------------------------------- population

SharedBytes ReadStrategy::population_payload(const ChunkRef& chunk,
                                             std::size_t chunk_size) const {
  if (ctx_.verify_data) {
    // Share the backend's buffer; empty handle if the bytes were never
    // materialized (latency-only objects).
    const auto bytes = ctx_.backend->get_chunk(chunk);
    return bytes.has_value() ? *bytes : SharedBytes{};
  }
  // Latency-only mode: only the size matters to the cache, so every
  // populated chunk of a given size shares one zero buffer.
  if (zero_payload_.size() != chunk_size) {
    zero_payload_ = SharedBytes(Bytes(chunk_size, 0));
  }
  return zero_payload_;
}

void ReadStrategy::populate_chunk_async(ObjectId id, ChunkIndex index,
                                        cache::CacheEngine& cache) {
  const ChunkRef chunk = ctx_.backend->chunk(id, index);
  if (cache.contains(chunk)) return;
  const std::size_t chunk_size = ctx_.backend->chunk_size(id);
  (void)fetcher_.fetch(
      chunk, ctx_.region, ctx_.backend->region_of(id, index), chunk_size,
      [this, chunk, &cache, chunk_size](std::optional<SimTimeMs> latency) {
        if (!latency.has_value()) return;  // region down; retry next period
        SharedBytes payload = population_payload(chunk, chunk_size);
        if (ctx_.verify_data && payload.empty()) return;  // no backend bytes
        cache.put(chunk, std::move(payload));
      });
}

bool ReadStrategy::verify_payload(ObjectId id,
                                  const std::vector<ec::Chunk>& chunks) {
  const store::WrittenObject& written = ctx_.backend->written(id);
  if (written.data.empty()) return false;  // no bytes were ever stored
  const ec::ObjectCodec& codec =
      ctx_.codec != nullptr ? *ctx_.codec : ctx_.backend->codec();
  return written.matches(codec.data_views(chunks, decode_scratch_));
}

}  // namespace agar::client
