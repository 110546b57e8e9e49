// splitmix64: the one integer mixer behind every seeded draw in dsmt.
//
// The Monte-Carlo counter RNG (core/variation.cpp), the supervise restart
// backoff jitter, the socket chaos harness (net/socket_io) and dsmt_loadgen
// all draw from it. It is pure integer arithmetic, so a draw is bitwise
// identical on every platform, compiler and thread count.
#pragma once

#include <cstdint>

namespace dsmt::core {

/// The splitmix64 stream increment (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitmix64Gamma = 0x9e3779b97f4a7c15ULL;

/// The splitmix64 finalizer: a bijective avalanche of `z`.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One splitmix64 output for state `z`: the finalizer of z + gamma.
constexpr std::uint64_t splitmix64(std::uint64_t z) {
  return mix64(z + kSplitmix64Gamma);
}

/// The top 53 bits of `draw` as a uniform double in [0, 1).
constexpr double unit_double(std::uint64_t draw) {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

}  // namespace dsmt::core
