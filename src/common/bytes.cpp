#include "common/bytes.hpp"

#include <array>
#include <cstdio>
#include <cstring>

#include "common/rng.hpp"

namespace agar {

Bytes deterministic_payload(const std::string& key, std::size_t size) {
  // One SplitMix64 step per 8 output bytes, written word-at-a-time. Keeps
  // working-set population (hundreds of MB for the large-object scenarios)
  // off the wall-clock critical path of tests and benches.
  Bytes out(size);
  SplitMix64 sm(fnv1a(key) ^ 0xa5a5a5a55a5a5a5aULL);
  std::uint8_t* p = out.data();
  std::size_t n = size;
  while (n >= 8) {
    const std::uint64_t v = sm.next();
    std::memcpy(p, &v, 8);
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    const std::uint64_t v = sm.next();
    std::memcpy(p, &v, n);
  }
  return out;
}

std::uint64_t fnv1a(BytesView data) {
  return fnv1a_extend(0xcbf29ce484222325ULL, data);
}

std::uint64_t fnv1a_extend(std::uint64_t state, BytesView data) {
  for (const std::uint8_t b : data) {
    state ^= b;
    state *= 0x100000001b3ULL;
  }
  return state;
}

std::uint64_t chunk_key_hash(std::uint64_t key_hash, std::uint32_t index) {
  // "#" then the decimal index, as ChunkId::cache_key() spells it.
  std::uint8_t buf[11];
  std::size_t n = sizeof(buf);
  do {
    buf[--n] = static_cast<std::uint8_t>('0' + index % 10);
    index /= 10;
  } while (index != 0);
  buf[--n] = '#';
  return fnv1a_extend(key_hash, BytesView(buf + n, sizeof(buf) - n));
}

std::uint64_t fnv1a(const std::string& s) {
  return fnv1a(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                         s.size()));
}

std::string format_bytes(std::size_t n) {
  static constexpr std::array<const char*, 5> kUnits = {"B", "KB", "MB", "GB",
                                                        "TB"};
  double v = static_cast<double>(n);
  std::size_t unit = 0;
  while (v >= 1024.0 && unit + 1 < kUnits.size()) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
  return buf;
}

}  // namespace agar
