#include "core/fetch_coordinator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace agar::core {

FetchCoordinator::FetchCoordinator(sim::Network* network,
                                   const store::ObjectTable* objects)
    : network_(network), objects_(objects) {
  if (network_ == nullptr) {
    throw std::invalid_argument("FetchCoordinator: null network");
  }
}

void FetchCoordinator::set_transport(KeyedTransport transport) {
  if (!transport) {
    transport_ = {};
    return;
  }
  if (objects_ == nullptr) {
    own_objects_ = std::make_unique<store::ObjectTable>();
    objects_ = own_objects_.get();
  }
  transport_ = [this, keyed = std::move(transport)](
                   const ChunkRef& chunk, RegionId from, RegionId to,
                   std::size_t bytes, Callback cb) {
    return keyed(ChunkId{objects_->key_of(chunk.object), chunk.index}, from,
                 to, bytes, std::move(cb));
  };
}

FetchStart FetchCoordinator::fetch(const ChunkRef& chunk, RegionId from,
                                   RegionId to, std::size_t bytes,
                                   Callback cb) {
  const std::uint64_t key = chunk.packed();
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    it->second.push_back(std::move(cb));
    ++coalesced_;
    return FetchStart::kJoined;
  }
  // Captures two words, so std::function holds it inline (no allocation).
  Callback on_done = [this, key](std::optional<SimTimeMs> latency) {
    // Move the waiter list out before invoking: a callback may start a
    // new fetch of the same chunk, which must open a fresh entry.
    auto node = inflight_.extract(key);
    for (auto& waiter : node.mapped()) waiter(latency);
  };
  const bool accepted =
      transport_
          ? transport_(chunk, from, to, bytes, std::move(on_done))
          : network_->begin_fetch(from, to, bytes, std::move(on_done));
  if (!accepted) return FetchStart::kDown;
  inflight_.emplace(key, std::vector<Callback>{std::move(cb)});
  ++started_;
  max_table_size_ = std::max(max_table_size_, inflight_.size());
  return FetchStart::kStarted;
}

FetchStart FetchCoordinator::fetch(const ChunkId& chunk, RegionId from,
                                   RegionId to, std::size_t bytes,
                                   Callback cb) {
  if (objects_ == nullptr) {
    own_objects_ = std::make_unique<store::ObjectTable>();
    objects_ = own_objects_.get();
  }
  const ObjectId id = own_objects_ != nullptr ? own_objects_->intern(chunk.key)
                                              : objects_->id_of(chunk.key);
  return fetch(objects_->chunk(id, chunk.index), from, to, bytes,
               std::move(cb));
}

}  // namespace agar::core
