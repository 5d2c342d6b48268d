// The erasure-coded backend cluster: one bucket per region plus the
// placement policy and codec parameters that define the stripe layout.
//
// Writing an object encodes it with Reed-Solomon and distributes the k+m
// chunks round-robin over the regional buckets, exactly like Fig. 1 of the
// paper (6 regions, RS(9,3), two chunks per region).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "ec/object_codec.hpp"
#include "ec/placement.hpp"
#include "store/bucket.hpp"
#include "store/object_table.hpp"

namespace agar::store {

/// Location of one chunk: stripe index + region.
struct ChunkLocation {
  ChunkIndex index = 0;
  RegionId region = kInvalidRegion;
};

/// Per-object metadata the backend exposes (what a real deployment would
/// keep in a metadata service).
struct ObjectInfo {
  std::size_t object_size = 0;
  std::size_t chunk_size = 0;
  std::vector<ChunkLocation> locations;  // all k + m chunks
};

/// What the last write of an object stored. `data` holds handles to the k
/// data chunks (padding included) that put_object placed in the buckets —
/// refcounts on the same buffers, not copies. This is the verify-mode
/// reference: it survives a bucket erase, so reads decoded from parity and
/// chunks rebuilt by repair are checked against the write-time bytes.
/// Empty for objects registered without payloads.
struct WrittenObject {
  std::size_t object_size = 0;
  std::size_t chunk_size = 0;
  std::vector<SharedBytes> data;

  /// True if `views` (k data-chunk views, e.g. from ObjectCodec::data_views)
  /// hold exactly these bytes: a byte-for-byte compare over the object's
  /// bytes (padding excluded, as a decode strips it) that skips only a view
  /// of the reference allocation itself. False when nothing was stored.
  [[nodiscard]] bool matches(std::span<const BytesView> views) const;
};

class BackendCluster {
 public:
  BackendCluster(std::size_t num_regions, ec::CodecParams codec_params,
                 std::shared_ptr<const ec::Placement> placement);

  [[nodiscard]] std::size_t num_regions() const { return buckets_.size(); }
  [[nodiscard]] const ec::ObjectCodec& codec() const { return codec_; }
  [[nodiscard]] const ec::Placement& placement() const { return *placement_; }

  /// Encode `data` and store its chunks across the regional buckets. A new
  /// key is interned (its id appends); rewriting a key keeps its id.
  ObjectId put_object(const ObjectKey& key, BytesView data);

  /// Register an object's metadata without materializing chunk payloads.
  /// Used by latency-only experiments where no real bytes move; get_chunk
  /// on such an object returns nullopt. Interns the key like put_object.
  ObjectId register_object(const ObjectKey& key, std::size_t object_size);

  /// Make room for `objects` objects in all (the table and the per-object
  /// vectors), so registering that many allocates only the index nodes.
  void reserve(std::size_t objects);

  /// The intern table: key strings <-> the ids everything else carries.
  [[nodiscard]] const ObjectTable& objects() const { return objects_; }

  /// True if the object has been written.
  [[nodiscard]] bool has_object(const ObjectKey& key) const;

  // ----------------------------------------------------- by object id
  // Ids come from objects(), put_object or register_object; an id the
  // table never handed out is undefined behavior.

  [[nodiscard]] std::size_t object_size(ObjectId id) const {
    return written_[id].object_size;
  }
  [[nodiscard]] std::size_t chunk_size(ObjectId id) const {
    return written_[id].chunk_size;
  }
  /// Region storing chunk `index` of `id`: the placement's rotation of the
  /// stripe, computed from the offset stored at registration.
  [[nodiscard]] RegionId region_of(ObjectId id, ChunkIndex index) const {
    return static_cast<RegionId>((index + offsets_[id]) % buckets_.size());
  }
  /// Chunk `index` of `id`, cache-key hash filled in.
  [[nodiscard]] ChunkRef chunk(ObjectId id, ChunkIndex index) const {
    return objects_.chunk(id, index);
  }
  /// Stripe layout for an object.
  [[nodiscard]] ObjectInfo object_info(ObjectId id) const;
  /// The object's last write (verify reference).
  [[nodiscard]] const WrittenObject& written(ObjectId id) const {
    return written_[id];
  }
  /// Fetch one chunk payload from its region's bucket. Shares the stored
  /// buffer (refcount bump); never copies the bytes.
  [[nodiscard]] std::optional<SharedBytes> get_chunk(const ChunkRef& id) const;

  // ------------------------------------ by key string (edge adapters)
  // Each resolves the key through objects() and calls the id form.

  /// Throws std::out_of_range if unknown.
  [[nodiscard]] ObjectInfo object_info(const ObjectKey& key) const;
  /// Throws std::out_of_range if unknown.
  [[nodiscard]] const WrittenObject& written(const ObjectKey& key) const;
  /// nullopt if the object is unknown.
  [[nodiscard]] std::optional<SharedBytes> get_chunk(const ChunkId& id) const;

  /// Direct bucket access (tests, repair tooling).
  [[nodiscard]] Bucket& bucket(RegionId r) { return buckets_.at(r); }
  [[nodiscard]] const Bucket& bucket(RegionId r) const {
    return buckets_.at(r);
  }

  [[nodiscard]] std::size_t num_objects() const { return objects_.size(); }
  /// Every key, in id (registration) order.
  [[nodiscard]] std::vector<ObjectKey> keys() const;

 private:
  /// Intern `key` and size the per-object vectors for it.
  ObjectId intern(const ObjectKey& key);

  ec::ObjectCodec codec_;
  std::shared_ptr<const ec::Placement> placement_;
  std::vector<Bucket> buckets_;
  ObjectTable objects_;
  // Per-object state, indexed by ObjectId.
  std::vector<WrittenObject> written_;
  std::vector<std::uint32_t> offsets_;  ///< placement rotation of the stripe
};

/// Populate the backend with the paper's working set: `count` objects named
/// "<prefix>0".."<prefix>N-1", each `object_size` bytes of deterministic
/// pseudo-random payload (300 x 1 MB in the paper). Each write is checked
/// once here: the stored data chunks must equal the generated payload, so
/// a read verified against BackendCluster::written matches
/// deterministic_payload(key) too. Throws std::logic_error otherwise.
/// Returns the objects' ids by index.
std::vector<ObjectId> populate_working_set(BackendCluster& backend,
                                           std::size_t count,
                                           std::size_t object_size,
                                           const std::string& prefix = "object");

}  // namespace agar::store
