#include "store/object_table.hpp"

#include <charconv>
#include <stdexcept>

namespace agar::store {

ObjectId ObjectTable::intern(const ObjectKey& key) {
  const auto [it, inserted] =
      ids_.try_emplace(key, static_cast<ObjectId>(keys_.size()));
  if (inserted) {
    keys_.push_back(&it->first);
    hashes_.push_back(fnv1a(key));
  }
  return it->second;
}

void ObjectTable::reserve(std::size_t objects) {
  ids_.reserve(objects);
  keys_.reserve(objects);
  hashes_.reserve(objects);
}

std::optional<ObjectId> ObjectTable::find(std::string_view key) const {
  const auto it = ids_.find(key);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

ObjectId ObjectTable::id_of(std::string_view key) const {
  const auto id = find(key);
  if (!id.has_value()) {
    throw std::out_of_range("ObjectTable: unknown object " + std::string(key));
  }
  return *id;
}

std::optional<ChunkRef> ObjectTable::find_chunk(
    std::string_view cache_key) const {
  const auto hash = cache_key.rfind('#');
  if (hash == std::string_view::npos) return std::nullopt;
  const std::string_view digits = cache_key.substr(hash + 1);
  ChunkIndex index = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), index);
  // Canonical spelling only ("#3", never "#03"), as cache_key() writes it.
  if (ec != std::errc{} || end != digits.data() + digits.size() ||
      digits.empty() || (digits.size() > 1 && digits[0] == '0')) {
    return std::nullopt;
  }
  const auto id = find(cache_key.substr(0, hash));
  if (!id.has_value()) return std::nullopt;
  return chunk(*id, index);
}

}  // namespace agar::store
