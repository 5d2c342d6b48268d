#include "store/bucket.hpp"

namespace agar::store {

void Bucket::put(const ChunkRef& id, SharedBytes data) {
  puts_.fetch_add(1, std::memory_order_relaxed);
  auto it = chunks_.find(id.packed());
  if (it != chunks_.end()) {
    total_bytes_ -= it->second.size();
    total_bytes_ += data.size();
    it->second = std::move(data);
    return;
  }
  total_bytes_ += data.size();
  chunks_.emplace(id.packed(), std::move(data));
}

std::optional<SharedBytes> Bucket::get(const ChunkRef& id) const {
  gets_.fetch_add(1, std::memory_order_relaxed);
  const auto it = chunks_.find(id.packed());
  if (it == chunks_.end()) return std::nullopt;
  return it->second;  // refcount bump, not a byte copy
}

bool Bucket::contains(const ChunkRef& id) const {
  return chunks_.contains(id.packed());
}

bool Bucket::erase(const ChunkRef& id) {
  const auto it = chunks_.find(id.packed());
  if (it == chunks_.end()) return false;
  total_bytes_ -= it->second.size();
  chunks_.erase(it);
  return true;
}

}  // namespace agar::store
