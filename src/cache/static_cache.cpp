#include "cache/static_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace agar::cache {

StaticConfigCache::StaticConfigCache(std::size_t capacity_bytes,
                                     const store::ObjectTable* objects)
    : CacheEngine(capacity_bytes), objects_(objects) {}

std::optional<SharedBytes> StaticConfigCache::get(const ChunkRef& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;  // shared handle, no copy
}

bool StaticConfigCache::put(const ChunkRef& key, SharedBytes value) {
  ++stats_.puts;
  if (!is_configured(key)) {
    ++stats_.rejections;
    return false;
  }
  if (value.size() > capacity_bytes_) {
    ++stats_.rejections;
    return false;
  }
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    used_bytes_ -= it->second.size();
    used_bytes_ += value.size();
    it->second = std::move(value);
    ++stats_.admissions;
    return true;
  }
  if (used_bytes_ + value.size() > capacity_bytes_) {
    // The solver sized the configuration to fit; if chunk sizes drifted
    // (e.g. configuration from a stale size estimate) decline rather than
    // evict a configured sibling.
    ++stats_.rejections;
    return false;
  }
  used_bytes_ += value.size();
  entries_.emplace(key, std::move(value));
  ++stats_.admissions;
  return true;
}

bool StaticConfigCache::contains(const ChunkRef& key) const {
  return entries_.contains(key);
}

bool StaticConfigCache::erase(const ChunkRef& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  used_bytes_ -= it->second.size();
  entries_.erase(it);
  return true;
}

void StaticConfigCache::clear() {
  stats_.evictions += entries_.size();
  entries_.clear();
  used_bytes_ = 0;
}

std::vector<ChunkRef> StaticConfigCache::keys() const {
  std::vector<ChunkRef> out;
  out.reserve(entries_.size());
  // agar-lint: ordered-ok(sorted below before returning)
  for (const auto& [key, value] : entries_) out.push_back(key);
  // Callers compare and print key lists; hand them a stable order rather
  // than the hash-map's.
  std::sort(out.begin(), out.end(), [](const ChunkRef& a, const ChunkRef& b) {
    return a.packed() < b.packed();
  });
  return out;
}

void StaticConfigCache::install_configuration(
    std::vector<ChunkMask> configured) {
  configured_ = std::move(configured);
  configured_chunks_ = 0;
  for (const ChunkMask mask : configured_) {
    configured_chunks_ += static_cast<std::size_t>(std::popcount(mask));
  }
  ++reconfigurations_;
  // agar-lint: ordered-ok(pure eviction sweep; membership test + counter, no
  // order-dependent output)
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (!is_configured(it->first)) {
      used_bytes_ -= it->second.size();
      it = entries_.erase(it);
      ++stats_.evictions;
    } else {
      ++it;
    }
  }
}

ChunkRef StaticConfigCache::resolve(const std::string& cache_key) const {
  if (objects_ == nullptr) {
    throw std::logic_error("StaticConfigCache: no object table to resolve " +
                           cache_key);
  }
  const auto ref = objects_->find_chunk(cache_key);
  if (!ref.has_value()) {
    throw std::out_of_range("StaticConfigCache: not a chunk of a known "
                            "object: " + cache_key);
  }
  return *ref;
}

std::optional<SharedBytes> StaticConfigCache::get(
    const std::string& cache_key) {
  return get(resolve(cache_key));
}

bool StaticConfigCache::put(const std::string& cache_key, SharedBytes value) {
  return put(resolve(cache_key), std::move(value));
}

bool StaticConfigCache::contains(const std::string& cache_key) const {
  return contains(resolve(cache_key));
}

}  // namespace agar::cache
