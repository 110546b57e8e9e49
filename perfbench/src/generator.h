// Seeded request generator for the benchmark workloads.
//
// A stream is a pure function of (mix, seed): the same pair always yields
// the same requests, and therefore the same wire payloads byte for byte.
// The randomness is a private splitmix64 with hand-written conversions, so
// the stream does not depend on the standard library's distribution
// implementations.
//
// Two mixes:
//   kUnique  every request is a distinct operating point (continuous duty
//            cycle, j0 and wire geometry) over all three request kinds;
//            table-cell requests cover every built-in NTRS technology,
//            every level of it and every gap-fill.
//   kChip    one chip of the paper's 100 nm Cu technology asking for each
//            wire's rule: self-consistent requests with the geometry of one
//            of its levels, as a signal (r = 0.1) or power (r = 1.0) line,
//            so almost every key repeats.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "service/request.h"

namespace perfbench {

enum class Mix { kUnique, kChip };

/// splitmix64: tiny, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);
  /// Exponential inter-arrival gap for a Poisson process of `rate` [1/s].
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

class RequestStream {
 public:
  RequestStream(Mix mix, std::uint64_t seed);

  /// The next request; ids are "r0", "r1", ... in stream order.
  dsmt::service::Request next();

 private:
  dsmt::service::Request next_unique();
  dsmt::service::Request next_chip();

  Mix mix_;
  Rng rng_;
  std::uint64_t index_ = 0;
};

/// The DSM1 payload a client sends for `request`.
std::string payload_of(const dsmt::service::Request& request);

/// The request's physics key: its payload with the id cleared. Two
/// requests with equal keys ask the service the same question.
std::string key_of(const dsmt::service::Request& request);

/// Index encoded in a generated id ("r123" -> 123); -1 when malformed.
long long index_of_id(const std::string& id);

/// Kind mix and key repetition of a stream, fed one request at a time.
class StreamStats {
 public:
  void add(const dsmt::service::Request& request);

  std::size_t total() const { return total_; }
  /// Share of the stream of one service::RequestKind.
  double kind_share(dsmt::service::RequestKind kind) const;
  /// Share of requests whose key already appeared earlier in the stream.
  double repeat_share() const;
  /// One line: request count, kind mix and repeated-key share.
  std::string describe() const;

 private:
  std::size_t total_ = 0;
  std::array<std::size_t, 3> kinds_{};
  std::unordered_set<std::size_t> seen_;  ///< hashes of keys seen
};

/// Built-in technology names every table-cell request is drawn from.
const std::vector<std::string>& technology_names();
/// Gap-fill names every table-cell request is drawn from.
const std::vector<std::string>& gap_fill_names();

}  // namespace perfbench
