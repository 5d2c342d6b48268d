#include "client/backend_strategy.hpp"

#include <algorithm>
#include <memory>

#include "api/registry.hpp"

namespace agar::client {

namespace {

const api::StrategyRegistration kBackend{{
    "backend",
    "Backend",
    "no cache: fetch the k cheapest chunks straight from the backend",
    api::ParamSchema{},
    [](const api::StrategyContext& ctx, const api::ParamMap&) {
      return std::make_unique<BackendStrategy>(*ctx.client);
    },
    {}}};

}  // namespace

std::vector<std::pair<ChunkIndex, RegionId>> chunks_by_expected_latency(
    const ClientContext& ctx, ObjectId id) {
  const std::size_t total = ctx.backend->codec().rs().total();
  const std::size_t chunk_size = ctx.backend->chunk_size(id);
  struct Entry {
    ChunkIndex index;
    RegionId region;
    double expected_ms;
  };
  std::vector<Entry> entries;
  entries.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto idx = static_cast<ChunkIndex>(i);
    const RegionId region = ctx.backend->region_of(id, idx);
    entries.push_back(Entry{idx, region,
                            ctx.network->model().expected_backend_fetch_ms(
                                ctx.region, region, chunk_size)});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.expected_ms != b.expected_ms) return a.expected_ms < b.expected_ms;
    if (a.region != b.region) return a.region < b.region;
    return a.index < b.index;
  });
  std::vector<std::pair<ChunkIndex, RegionId>> out;
  out.reserve(entries.size());
  for (const auto& e : entries) out.emplace_back(e.index, e.region);
  return out;
}

std::vector<std::pair<ChunkIndex, RegionId>> chunks_by_expected_latency(
    const ClientContext& ctx, const ObjectKey& key) {
  return chunks_by_expected_latency(ctx, ctx.backend->objects().id_of(key));
}

void BackendStrategy::start_read(ObjectId id, ReadCallback done) {
  const std::size_t k = ctx_.backend->codec().k();
  const auto candidates = chunks_by_expected_latency(ctx_, id);
  core::ReadPlan plan;
  plan.from_backend.assign(candidates.begin(),
                           candidates.begin() + static_cast<std::ptrdiff_t>(k));
  start_plan(id, candidates, std::move(plan), nullptr, std::move(done));
}

}  // namespace agar::client
