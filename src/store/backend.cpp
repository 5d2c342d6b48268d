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
}

void BackendCluster::put_object(const ObjectKey& key, BytesView data) {
  ec::EncodedObject encoded = codec_.encode(data);
  WrittenObject object{encoded.object_size,
                       codec_.chunk_size(encoded.object_size), {}};
  object.data.reserve(codec_.k());
  for (auto& chunk : encoded.chunks) {
    if (chunk.index < codec_.k()) object.data.push_back(chunk.data);
    const RegionId region =
        placement_->region_of(key, chunk.index, num_regions());
    buckets_.at(region).put(ChunkId{key, chunk.index}, std::move(chunk.data));
  }
  objects_[key] = std::move(object);
}

void BackendCluster::register_object(const ObjectKey& key,
                                     std::size_t object_size) {
  objects_[key] =
      WrittenObject{object_size, codec_.chunk_size(object_size), {}};
}

bool BackendCluster::has_object(const ObjectKey& key) const {
  return objects_.contains(key);
}

const WrittenObject& BackendCluster::written(const ObjectKey& key) const {
  const auto it = objects_.find(key);
  if (it == objects_.end()) {
    throw std::out_of_range("BackendCluster: unknown object " + key);
  }
  return it->second;
}

ObjectInfo BackendCluster::object_info(const ObjectKey& key) const {
  const WrittenObject& object = written(key);
  ObjectInfo info;
  info.object_size = object.object_size;
  info.chunk_size = object.chunk_size;
  const std::size_t total = codec_.rs().total();
  info.locations.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto idx = static_cast<ChunkIndex>(i);
    info.locations.push_back(
        ChunkLocation{idx, placement_->region_of(key, idx, num_regions())});
  }
  return info;
}

std::optional<SharedBytes> BackendCluster::get_chunk(const ChunkId& id) const {
  const auto it = objects_.find(id.key);
  if (it == objects_.end()) return std::nullopt;
  const RegionId region = placement_->region_of(id.key, id.index,
                                                num_regions());
  return buckets_.at(region).get(id);
}

std::vector<ObjectKey> BackendCluster::keys() const {
  std::vector<ObjectKey> out;
  out.reserve(objects_.size());
  for (const auto& [key, value] : objects_) out.push_back(key);
  return out;
}

void populate_working_set(BackendCluster& backend, std::size_t count,
                          std::size_t object_size, const std::string& prefix) {
  for (std::size_t i = 0; i < count; ++i) {
    const ObjectKey key = prefix + std::to_string(i);
    const Bytes payload = deterministic_payload(key, object_size);
    backend.put_object(key, BytesView(payload));
    std::size_t offset = 0;
    for (const SharedBytes& chunk : backend.written(key).data) {
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
}

}  // namespace agar::store
