// The intern table: object key strings <-> dense ObjectIds.
//
// The backend interns every object once, when it is first registered or
// written; from then on the read path and the control plane carry the id
// (and ChunkRef, its per-chunk form) and never hash or compare the key
// string. The table keeps each key's FNV-1a hash next to it, so the hash
// of any chunk cache key ("<key>#<index>") continues from it without
// building the string (chunk_key_hash).
//
// Ids are dense and stable: the n-th distinct key gets id n, and
// re-interning a known key returns its id. Lookups are const and the
// table is only appended to while no run reads it concurrently (working
// set registration, single-threaded writers), so shard threads share one
// table read-only.
#pragma once

#include <functional>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace agar::store {

class ObjectTable {
 public:
  ObjectTable() = default;
  // keys_ points into the index's nodes: a copy would point into the
  // original's. A move keeps the nodes (and so the pointers) in place.
  ObjectTable(const ObjectTable&) = delete;
  ObjectTable& operator=(const ObjectTable&) = delete;
  ObjectTable(ObjectTable&&) = default;
  ObjectTable& operator=(ObjectTable&&) = default;

  /// The key's id; a new key appends (id == size() before the call). One
  /// hash lookup and one allocation for a new key, none for a known one.
  ObjectId intern(const ObjectKey& key);

  /// Make room for `objects` keys in all, so interning that many
  /// allocates nothing beyond the index nodes.
  void reserve(std::size_t objects);

  [[nodiscard]] std::optional<ObjectId> find(std::string_view key) const;

  /// The key's id. Throws std::out_of_range for an unknown key.
  [[nodiscard]] ObjectId id_of(std::string_view key) const;

  [[nodiscard]] const ObjectKey& key_of(ObjectId id) const {
    return *keys_[id];
  }
  /// fnv1a(key_of(id)).
  [[nodiscard]] std::uint64_t key_hash(ObjectId id) const {
    return hashes_[id];
  }
  /// Chunk `index` of object `id`, its cache-key hash filled in.
  [[nodiscard]] ChunkRef chunk(ObjectId id, ChunkIndex index) const {
    return ChunkRef{id, index, chunk_key_hash(hashes_[id], index)};
  }
  /// Resolve a ChunkId (key string + index). Throws std::out_of_range for
  /// an unknown key.
  [[nodiscard]] ChunkRef chunk(const ChunkId& id) const {
    return chunk(id_of(id.key), id.index);
  }
  /// Resolve a chunk cache key ("<key>#<index>"); nullopt if the key is
  /// unknown or the string is not a cache key.
  [[nodiscard]] std::optional<ChunkRef> find_chunk(
      std::string_view cache_key) const;

  /// Key-string order of two ids: every order that reaches output (monitor
  /// snapshots, configurations, planner ties) is the key strings' order.
  [[nodiscard]] bool key_less(ObjectId a, ObjectId b) const {
    return *keys_[a] < *keys_[b];
  }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }

 private:
  /// Transparent hashing, so string_view lookups build no std::string.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };

  /// Key -> id; the nodes own the key strings and never move.
  std::unordered_map<ObjectKey, ObjectId, KeyHash, std::equal_to<>> ids_;
  std::vector<const ObjectKey*> keys_;  ///< id -> key, into ids_' nodes
  std::vector<std::uint64_t> hashes_;   ///< id -> fnv1a(key)
};

}  // namespace agar::store
