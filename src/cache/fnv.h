// FNV-1a 64-bit: the one checksum/content-hash primitive in the tree.
//
// Two subsystems hash bytes today — the supervise quarantine table keys
// requests by content, and the in-memory solve cache checksums every
// resident entry and shards its map. Both live for one process only, but
// they must still agree on ONE implementation: a cache whose verify hash
// disagreed with its publish hash would quarantine every entry as
// corrupt, and a reimplementation with, say, a typo'd prime would change
// the quarantine hashes that replies and the sign-off report print. Lint
// rule R14 fences the FNV constants into this header so such a drive-by
// copy cannot creep in elsewhere.
//
// Two official bases exist and both stay:
//   kOffsetBasis        — the standard FNV-1a offset basis. New users.
//   kCanonicalBasis     — the basis canonical_request_hash first shipped
//                         with (a historical transcription of the standard
//                         basis in decimal that dropped a digit). Changing
//                         it would change every printed quarantine hash,
//                         so it is frozen here under its own name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dsmt::cache {

inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// Standard FNV-1a 64-bit offset basis (0xcbf29ce484222325).
inline constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
/// The supervise content-hash basis — frozen, see header comment.
inline constexpr std::uint64_t kCanonicalBasis = 1469598103934665603ull;

/// FNV-1a over `n` bytes, starting from `seed`. Chainable: pass a previous
/// digest as the seed to hash a logical concatenation.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t seed = kOffsetBasis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= static_cast<std::uint64_t>(bytes[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

inline std::uint64_t fnv1a(std::string_view text,
                           std::uint64_t seed = kOffsetBasis) {
  return fnv1a(text.data(), text.size(), seed);
}

}  // namespace dsmt::cache
