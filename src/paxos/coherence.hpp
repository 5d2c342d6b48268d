// Write coherence for Agar caches — the §VI extension: "Agar would need to
// implement a cache coherence algorithm, similar to CPUs. Protocols such as
// Paxos could provide the necessary synchronization primitives."
//
// Design (write-invalidate):
//   * every object carries a version;
//   * a write appends an invalidation record (key, version) to the
//     Paxos-replicated log — this serializes concurrent writers globally;
//   * each region's cache registers as a listener; applying the log in slot
//     order erases the object's chunks from the cache, so subsequent reads
//     miss and repopulate with fresh data;
//   * readers in the writer's region observe their own writes immediately
//     (the append completes before the write acknowledges).
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "paxos/replicated_log.hpp"
#include "store/object_table.hpp"

namespace agar::paxos {

/// One committed write.
struct WriteRecord {
  ObjectKey key;
  std::uint64_t version = 0;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static WriteRecord decode(const std::string& s);
};

class CoherenceCoordinator {
 public:
  /// `objects` (non-null, outlives the coordinator) resolves the keys of
  /// decided records to the chunks the attached caches hold.
  CoherenceCoordinator(std::size_t num_regions, sim::Network* network,
                       const store::ObjectTable* objects,
                       double message_rtt_factor = 0.3);

  /// Register a region's cache; its entries for a written object's chunks
  /// are erased when the write commits.
  /// `total_chunks` bounds the chunk indices to invalidate.
  void attach_cache(RegionId region, cache::CacheEngine* cache,
                    std::size_t total_chunks);

  /// Commit a write of `key` from `region`: serializes through the log,
  /// bumps the version, applies invalidations everywhere. Returns the
  /// consensus commit latency (the data-path chunk uploads are the
  /// caller's business) or nullopt if no quorum was reachable.
  [[nodiscard]] std::optional<SimTimeMs> commit_write(RegionId region,
                                                      const ObjectKey& key);

  /// Current committed version of `key` (0 = never written through us).
  [[nodiscard]] std::uint64_t version(const ObjectKey& key) const;

  [[nodiscard]] const ReplicatedLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t invalidations_applied() const {
    return invalidations_;
  }

 private:
  void apply_decided_records();

  struct AttachedCache {
    RegionId region = kInvalidRegion;
    cache::CacheEngine* cache = nullptr;  // non-owning
    std::size_t total_chunks = 0;
  };

  ReplicatedLog log_;
  const store::ObjectTable* objects_;  // non-owning
  std::vector<AttachedCache> caches_;
  std::unordered_map<ObjectKey, std::uint64_t> versions_;
  std::size_t applied_prefix_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace agar::paxos
