// Byte-buffer helpers used by the erasure codec and the object store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace agar {

/// Owning byte buffer. Chunks, objects and cache entries are Bytes.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning views.
using BytesView = std::span<const std::uint8_t>;
using BytesSpan = std::span<std::uint8_t>;

/// Deterministic payload generator: produces the same bytes for the same
/// (key, size). Used to populate the simulated backend without storing
/// golden files; store::populate_working_set checks the stored chunks
/// against it once, at write time. Verify-mode reads compare against those
/// write-time chunks (store::WrittenObject), not a regenerated payload.
Bytes deterministic_payload(const std::string& key, std::size_t size);

/// FNV-1a 64-bit hash over a byte range; used for payload fingerprints in
/// tests and for stable key->int mapping.
std::uint64_t fnv1a(BytesView data);
std::uint64_t fnv1a(const std::string& s);

/// FNV-1a is a streaming hash: `fnv1a_extend(fnv1a(a), b) == fnv1a(a + b)`.
/// The hash of a chunk's cache key ("<key>#<index>") therefore continues
/// from its object key's hash without building the string.
std::uint64_t fnv1a_extend(std::uint64_t state, BytesView data);
std::uint64_t chunk_key_hash(std::uint64_t key_hash, std::uint32_t index);

/// Render a byte count human-readably ("10.0 MB"); used by reports.
std::string format_bytes(std::size_t n);

}  // namespace agar
