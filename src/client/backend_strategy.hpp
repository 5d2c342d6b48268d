// Backend strategy (paper §V-A "Backend"): no caching layer at all — every
// read fetches the k cheapest chunks straight from the regional buckets and
// decodes. The floor (or ceiling, latency-wise) every caching system is
// compared against.
#pragma once

#include "client/strategy.hpp"

namespace agar::client {

class BackendStrategy final : public ReadStrategy {
 public:
  explicit BackendStrategy(ClientContext ctx) : ReadStrategy(ctx) {}

  void start_read(ObjectId id, ReadCallback done) override;
};

/// Chunk candidates of `id` sorted by expected fetch latency, cheapest
/// first (deterministic tie-break on region then index). Shared by all
/// strategies.
[[nodiscard]] std::vector<std::pair<ChunkIndex, RegionId>>
chunks_by_expected_latency(const ClientContext& ctx, ObjectId id);
/// Key-string adapter: resolves the key (std::out_of_range if unknown).
[[nodiscard]] std::vector<std::pair<ChunkIndex, RegionId>>
chunks_by_expected_latency(const ClientContext& ctx, const ObjectKey& key);

}  // namespace agar::client
