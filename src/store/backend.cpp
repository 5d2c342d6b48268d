#include "store/backend.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace agar::store {

bool WrittenObject::matches(std::span<const BytesView> views) const {
  if (views.size() != data.size()) return false;  // e.g. no bytes stored
  std::size_t remaining = object_size;
  for (std::size_t d = 0; d < data.size(); ++d) {
    if (views[d].size() != data[d].size()) return false;
    const std::size_t len = std::min(remaining, data[d].size());
    remaining -= len;
    // A view of the reference allocation itself holds the same bytes.
    if (len == 0 || views[d].data() == data[d].data()) continue;
    if (std::memcmp(views[d].data(), data[d].data(), len) != 0) return false;
  }
  return true;
}

BackendCluster::BackendCluster(std::size_t num_regions,
                               ec::CodecParams codec_params,
                               std::shared_ptr<const ec::Placement> placement)
    : codec_(codec_params),
      placement_(std::move(placement)),
      buckets_(num_regions) {
  if (num_regions == 0) {
    throw std::invalid_argument("BackendCluster: need at least one region");
  }
  if (placement_ == nullptr) {
    throw std::invalid_argument("BackendCluster: null placement");
  }
  if (codec_.rs().total() > kMaxStripeChunks) {
    throw std::invalid_argument(
        "BackendCluster: k + m must be <= 64 (one chunk mask per object)");
  }
}

void BackendCluster::reserve(std::size_t objects) {
  objects_.reserve(objects);
  written_.reserve(objects);
  offsets_.reserve(objects);
}

ObjectId BackendCluster::intern(const ObjectKey& key) {
  const ObjectId id = objects_.intern(key);
  if (id == written_.size()) {
    written_.emplace_back();
    offsets_.push_back(static_cast<std::uint32_t>(placement_->stripe_offset(
        objects_.key_hash(id), num_regions())));
  }
  return id;
}

ObjectId BackendCluster::put_object(const ObjectKey& key, BytesView data) {
  const ObjectId id = intern(key);
  ec::EncodedObject encoded = codec_.encode(data);
  WrittenObject object{encoded.object_size,
                       codec_.chunk_size(encoded.object_size), {}};
  object.data.reserve(codec_.k());
  for (auto& chunk : encoded.chunks) {
    if (chunk.index < codec_.k()) object.data.push_back(chunk.data);
    buckets_.at(region_of(id, chunk.index))
        .put(objects_.chunk(id, chunk.index), std::move(chunk.data));
  }
  written_[id] = std::move(object);
  return id;
}

ObjectId BackendCluster::register_object(const ObjectKey& key,
                                         std::size_t object_size) {
  const ObjectId id = intern(key);
  written_[id] = WrittenObject{object_size, codec_.chunk_size(object_size), {}};
  return id;
}

bool BackendCluster::has_object(const ObjectKey& key) const {
  return objects_.find(key).has_value();
}

ObjectInfo BackendCluster::object_info(ObjectId id) const {
  ObjectInfo info;
  info.object_size = object_size(id);
  info.chunk_size = chunk_size(id);
  const std::size_t total = codec_.rs().total();
  info.locations.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto idx = static_cast<ChunkIndex>(i);
    info.locations.push_back(ChunkLocation{idx, region_of(id, idx)});
  }
  return info;
}

std::optional<SharedBytes> BackendCluster::get_chunk(const ChunkRef& id) const {
  return buckets_[region_of(id.object, id.index)].get(id);
}

ObjectInfo BackendCluster::object_info(const ObjectKey& key) const {
  return object_info(objects_.id_of(key));
}

const WrittenObject& BackendCluster::written(const ObjectKey& key) const {
  return written(objects_.id_of(key));
}

std::optional<SharedBytes> BackendCluster::get_chunk(const ChunkId& id) const {
  const auto object = objects_.find(id.key);
  if (!object.has_value()) return std::nullopt;
  return get_chunk(objects_.chunk(*object, id.index));
}

std::vector<ObjectKey> BackendCluster::keys() const {
  std::vector<ObjectKey> out;
  out.reserve(objects_.size());
  for (ObjectId id = 0; id < objects_.size(); ++id) {
    out.push_back(objects_.key_of(id));
  }
  return out;
}

std::vector<ObjectId> populate_working_set(BackendCluster& backend,
                                           std::size_t count,
                                           std::size_t object_size,
                                           const std::string& prefix) {
  std::vector<ObjectId> ids;
  ids.reserve(count);
  backend.reserve(backend.num_objects() + count);
  for (std::size_t i = 0; i < count; ++i) {
    const ObjectKey key = prefix + std::to_string(i);
    const Bytes payload = deterministic_payload(key, object_size);
    const ObjectId id = backend.put_object(key, BytesView(payload));
    ids.push_back(id);
    std::size_t offset = 0;
    for (const SharedBytes& chunk : backend.written(id).data) {
      const std::size_t len = std::min(chunk.size(), payload.size() - offset);
      if (len > 0 &&
          std::memcmp(chunk.data(), payload.data() + offset, len) != 0) {
        throw std::logic_error(
            "populate_working_set: stored chunks differ from the payload of " +
            key);
      }
      offset += len;
    }
  }
  return ids;
}

}  // namespace agar::store
