// Names for cache-engine tests: the engines key chunks by ChunkRef, and
// these tests think in short names ("a", "k7"). ck(name) interns the name
// in one test-wide object table and returns chunk 0 of it, hashed as the
// name itself, so a sketch asked about "a" sees the same hash.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "store/object_table.hpp"

namespace agar::test_keys {

inline store::ObjectTable& names() {
  static store::ObjectTable table;
  return table;
}

inline ChunkRef ck(const std::string& name) {
  return ChunkRef{names().intern(name), 0, fnv1a(name)};
}

/// The names of `refs` (chunks made by ck), sorted.
inline std::vector<std::string> names_of(const std::vector<ChunkRef>& refs) {
  std::vector<std::string> out;
  for (const ChunkRef& r : refs) out.push_back(names().key_of(r.object));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace agar::test_keys
