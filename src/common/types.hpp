// Core vocabulary types shared across the Agar reproduction.
//
// These are deliberately small value types: region identifiers, object keys,
// chunk identifiers and simulated-time aliases. Everything that moves between
// subsystems (simulator, store, cache, core algorithm, client) speaks in
// these types.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace agar {

/// Identifier of a geographic region (index into a Topology).
using RegionId = std::uint32_t;

/// Sentinel for "no region".
inline constexpr RegionId kInvalidRegion = static_cast<RegionId>(-1);

/// Key identifying a stored object (YCSB-style, e.g. "user4953").
using ObjectKey = std::string;

/// Dense id of an object, assigned by store::ObjectTable when the backend
/// first registers or writes the key (0, 1, 2, ... in registration order)
/// and stable for the table's lifetime: rewriting a key keeps its id. The
/// read path and the control plane name objects by id; key strings live
/// only at the edges (spec, daemon, JSON and reports, collab broadcasts).
using ObjectId = std::uint32_t;

/// Simulated time in milliseconds. The discrete-event simulator and every
/// latency figure in the reproduction use this unit (the paper reports
/// latencies in ms).
using SimTimeMs = double;

/// Index of a chunk within an erasure-coded stripe: data chunks occupy
/// [0, k), parity chunks occupy [k, k+m).
using ChunkIndex = std::uint32_t;

/// One bit per stripe position: bit i set = chunk i. A configuration holds
/// one mask per object, so a stripe has at most kMaxStripeChunks chunks.
using ChunkMask = std::uint64_t;
inline constexpr std::size_t kMaxStripeChunks = 64;

/// One chunk of one interned object, as the hot path names it: the
/// (object id, chunk index) pair, plus the FNV-1a hash of the chunk's
/// canonical cache-key string (`ChunkId::cache_key()`), so hashing policies
/// (TinyLFU's sketch) decide exactly as they would on the string. Identity
/// is (object, index) alone; `packed()` is the id-keyed containers' key.
/// Build one with store::ObjectTable::chunk, which fills in the hash.
struct ChunkRef {
  ObjectId object = 0;
  ChunkIndex index = 0;
  std::uint64_t hash = 0;

  [[nodiscard]] constexpr std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(object) << 32) | index;
  }
  [[nodiscard]] constexpr bool operator==(const ChunkRef& o) const {
    return object == o.object && index == o.index;
  }
};

/// Identifies one chunk of one object by key string: the edge form of a
/// ChunkRef (tests, tools and the string-keyed adapters).
struct ChunkId {
  ObjectKey key;
  ChunkIndex index = 0;

  bool operator==(const ChunkId&) const = default;

  /// Canonical string form used as a cache key, e.g. "user42#3".
  /// Mirrors how the paper's prototype addressed chunks in memcached.
  [[nodiscard]] std::string cache_key() const {
    return key + "#" + std::to_string(index);
  }
};

/// Bytes helper literals.
inline constexpr std::size_t operator""_KB(unsigned long long v) {
  return static_cast<std::size_t>(v) * 1024;
}
inline constexpr std::size_t operator""_MB(unsigned long long v) {
  return static_cast<std::size_t>(v) * 1024 * 1024;
}

}  // namespace agar

template <>
struct std::hash<agar::ChunkRef> {
  std::size_t operator()(const agar::ChunkRef& c) const noexcept {
    return std::hash<std::uint64_t>{}(c.packed());
  }
};

template <>
struct std::hash<agar::ChunkId> {
  std::size_t operator()(const agar::ChunkId& c) const noexcept {
    const std::size_t h1 = std::hash<std::string>{}(c.key);
    const std::size_t h2 = std::hash<std::uint32_t>{}(c.index);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};
