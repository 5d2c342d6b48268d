// Chunk placement policy: which region stores which chunk of an object.
//
// The paper (Fig. 1) distributes the twelve chunks of each object over six
// regions round-robin, two chunks per region. A placement rotates that
// stripe by a per-key offset, a pure function of the key's FNV-1a hash and
// the region count, so every component — backend, region manager, client —
// independently agrees on the layout without metadata. The backend computes
// each object's offset once, at registration, and derives every chunk's
// region from it arithmetically.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace agar::ec {

class Placement {
 public:
  virtual ~Placement() = default;

  /// Rotation of the stripe of the key hashing to `key_hash`: chunk i
  /// lives in region (i + offset) % num_regions. In [0, num_regions).
  [[nodiscard]] virtual std::size_t stripe_offset(
      std::uint64_t key_hash, std::size_t num_regions) const = 0;

  /// Region storing chunk `index` of `key`, given `num_regions` regions.
  /// Throws std::invalid_argument when num_regions is 0.
  [[nodiscard]] RegionId region_of(const ObjectKey& key, ChunkIndex index,
                                   std::size_t num_regions) const;

  /// All chunk indices of a (k+m)-chunk stripe that live in `region`.
  [[nodiscard]] std::vector<ChunkIndex> chunks_in_region(
      const ObjectKey& key, std::size_t total_chunks, RegionId region,
      std::size_t num_regions) const;
};

/// Round-robin placement: chunk i -> region (i + offset(key)) % R.
/// With offset disabled (the paper's setup) chunk i simply lives in region
/// i % R, so every region holds the same stripe positions for every object.
/// With key offsets enabled the stripe start rotates per key, spreading the
/// "near" chunks across regions (useful for load-balance experiments).
class RoundRobinPlacement final : public Placement {
 public:
  explicit RoundRobinPlacement(bool per_key_offset = false)
      : per_key_offset_(per_key_offset) {}

  [[nodiscard]] std::size_t stripe_offset(
      std::uint64_t key_hash, std::size_t num_regions) const override;

 private:
  bool per_key_offset_;
};

}  // namespace agar::ec
