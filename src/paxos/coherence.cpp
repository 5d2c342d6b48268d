#include "paxos/coherence.hpp"

#include <stdexcept>

#include "common/types.hpp"

namespace agar::paxos {

std::string WriteRecord::encode() const {
  return key + "@" + std::to_string(version);
}

WriteRecord WriteRecord::decode(const std::string& s) {
  const auto at = s.rfind('@');
  if (at == std::string::npos) {
    throw std::invalid_argument("WriteRecord: malformed record " + s);
  }
  WriteRecord r;
  r.key = s.substr(0, at);
  r.version = std::stoull(s.substr(at + 1));
  return r;
}

CoherenceCoordinator::CoherenceCoordinator(std::size_t num_regions,
                                           sim::Network* network,
                                           const store::ObjectTable* objects,
                                           double message_rtt_factor)
    : log_(num_regions, network, message_rtt_factor), objects_(objects) {
  if (objects_ == nullptr) {
    throw std::invalid_argument("CoherenceCoordinator: null object table");
  }
}

void CoherenceCoordinator::attach_cache(RegionId region,
                                        cache::CacheEngine* cache,
                                        std::size_t total_chunks) {
  if (cache == nullptr) {
    throw std::invalid_argument("CoherenceCoordinator: null cache");
  }
  caches_.push_back(AttachedCache{region, cache, total_chunks});
}

std::optional<SimTimeMs> CoherenceCoordinator::commit_write(
    RegionId region, const ObjectKey& key) {
  WriteRecord record;
  record.key = key;
  record.version = version(key) + 1;

  const AppendOutcome outcome = log_.append(region, record.encode());
  if (!outcome.ok) return std::nullopt;

  // Apply everything decided so far, in slot order, everywhere. In the
  // prototype this would be learners pushing to caches; the simulation
  // applies synchronously (the commit already paid the consensus latency).
  apply_decided_records();
  return outcome.latency_ms;
}

void CoherenceCoordinator::apply_decided_records() {
  const std::size_t prefix = log_.decided_prefix();
  for (; applied_prefix_ < prefix; ++applied_prefix_) {
    const auto decided = log_.learned(applied_prefix_);
    const WriteRecord record = WriteRecord::decode(*decided);
    // Versions apply in log order; re-writes of the same key may commit a
    // lower-than-proposed version number, so take the max.
    auto& v = versions_[record.key];
    v = std::max(v, record.version);
    // A key no cache can hold (never interned) has nothing to invalidate.
    const auto id = objects_->find(record.key);
    if (!id.has_value()) continue;
    for (const auto& attached : caches_) {
      for (ChunkIndex i = 0; i < attached.total_chunks; ++i) {
        if (attached.cache->erase(objects_->chunk(*id, i))) ++invalidations_;
      }
    }
  }
}

std::uint64_t CoherenceCoordinator::version(const ObjectKey& key) const {
  const auto it = versions_.find(key);
  return it == versions_.end() ? 0 : it->second;
}

}  // namespace agar::paxos
