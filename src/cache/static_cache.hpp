// Agar-managed cache: a bounded store whose admission is gated by a
// pre-computed *static configuration* (paper §III-c/d).
//
// The cache manager periodically installs the set of chunk keys that should
// reside in the cache. Between reconfigurations:
//   * get() serves whatever configured chunks have been populated;
//   * put() admits ONLY configured keys (clients write chunks they fetched,
//     per the paper's client-populates-cache protocol); anything else is
//     rejected;
//   * entries that fall out of the configuration are evicted eagerly at
//     reconfiguration time.
// There is no eviction policy in the classical sense — the knapsack solver
// already decided what deserves the space.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "store/object_table.hpp"

namespace agar::cache {

class StaticConfigCache final : public CacheEngine {
 public:
  /// `objects` resolves the string-keyed adapters below (null: they throw
  /// std::logic_error); the id-keyed interface never touches it.
  explicit StaticConfigCache(std::size_t capacity_bytes,
                             const store::ObjectTable* objects = nullptr);

  [[nodiscard]] std::optional<SharedBytes> get(const ChunkRef& key) override;
  bool put(const ChunkRef& key, SharedBytes value) override;
  [[nodiscard]] bool contains(const ChunkRef& key) const override;
  bool erase(const ChunkRef& key) override;
  void clear() override;
  /// Sorted by (object id, index).
  [[nodiscard]] std::vector<ChunkRef> keys() const override;

  /// Chunk cache-key ("<key>#<index>") adapters: each resolves the key
  /// through the object table (std::out_of_range if it names no chunk of
  /// a known object) and calls the ChunkRef form.
  [[nodiscard]] std::optional<SharedBytes> get(const std::string& cache_key);
  bool put(const std::string& cache_key, SharedBytes value);
  [[nodiscard]] bool contains(const std::string& cache_key) const;

  /// Install a new configuration: chunk masks indexed by object id (an id
  /// past the end configures nothing) — the exact set of admissible
  /// chunks. Resident entries outside the new set are evicted
  /// immediately; configured chunks are admitted lazily as clients put
  /// them.
  void install_configuration(std::vector<ChunkMask> configured);

  [[nodiscard]] bool is_configured(const ChunkRef& key) const {
    return key.object < configured_.size() &&
           ((configured_[key.object] >> key.index) & 1U) != 0;
  }
  [[nodiscard]] std::size_t configured_size() const {
    return configured_chunks_;
  }
  [[nodiscard]] std::uint64_t reconfigurations() const {
    return reconfigurations_;
  }

 private:
  [[nodiscard]] ChunkRef resolve(const std::string& cache_key) const;

  const store::ObjectTable* objects_;  // non-owning, may be null
  std::vector<ChunkMask> configured_;
  std::size_t configured_chunks_ = 0;
  std::unordered_map<ChunkRef, SharedBytes> entries_;
  std::uint64_t reconfigurations_ = 0;
};

}  // namespace agar::cache
