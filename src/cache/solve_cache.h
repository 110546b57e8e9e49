// Content-addressed solve cache: sharded, single-flight, memory-only.
//
// The map is deterministically sharded — shard = fnv1a(key) % shards, a
// pure function of the canonical request — so which lock a request takes
// never depends on thread count or arrival order, and replies stay
// byte-identical at every DSMT_THREADS (a hit and a miss produce the same
// bytes by construction; the shard layout only decides who waits on whom).
//
// Single-flight: the first thread to miss on a key becomes its LEADER and
// solves; concurrent threads asking the same key park on the shard's
// condition variable instead of duplicating the solve, waking when the
// leader publishes (a hit) or abandons (the earliest waiter is promoted to
// solve). Parks are deadline-aware: waiters poll core::run_check() every
// poll_interval_ms and give up into an independent solve when their budget
// is gone — a stampede cannot starve the pool, and a wedged leader cannot
// wedge its waiters past wait_budget_ns.
//
// Integrity: entries are stored as encoded payload bytes plus their FNV-1a
// digest, and EVERY hit re-verifies the digest and re-decodes before
// serving — a flipped bit in resident memory is quarantined (counted,
// evicted) and the request falls back to a full solve. Nothing is kept on
// disk: a solve costs under a microsecond, so a restart loses nothing.
//
// Lock hierarchy (DESIGN.md §7): shard mutexes are LEVEL 0 — held across
// waits but never across I/O or callbacks, and never two at once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/entry.h"
#include "core/thread_annotations.h"
#include "report/json.h"

namespace dsmt::cache {

struct SolveCacheConfig {
  std::size_t shards = 8;
  /// Total resident entries across shards; per-shard FIFO eviction.
  std::size_t max_entries = 65536;
  /// Waiter park granularity [ms]: cancellation/deadline observation lag.
  int poll_interval_ms = 10;
  /// Max time a waiter coalesces behind a leader before solving on its
  /// own [ns]. A backstop, not a deadline — ambient RunContext still wins.
  std::uint64_t wait_budget_ns = 2'000'000'000;
};

/// Monotonic counters since construction (snapshot).
struct CacheStats {
  std::uint64_t hits = 0;        ///< verified entries served
  std::uint64_t misses = 0;      ///< lookups that led or solved
  std::uint64_t coalesced = 0;   ///< hits served after parking on a flight
  std::uint64_t inserts = 0;     ///< entries published
  std::uint64_t evictions = 0;   ///< FIFO capacity evictions
  /// Resident entries never served because their checksum or structure
  /// failed verification.
  std::uint64_t corrupt_quarantined = 0;
  std::uint64_t entries = 0;  ///< resident now
  std::uint64_t bytes = 0;    ///< resident payload bytes now
};

/// acquire() outcome: serve the hit, lead the solve, or solve without a
/// flight (interrupted or budget-expired waiter).
enum class Acquire { kHit, kLead, kSolve };

class SolveCache {
 public:
  explicit SolveCache(SolveCacheConfig config);
  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Plain verified lookup — no flight, no parking. For callers that must
  /// never block on another request's solve (the supervise parent).
  bool lookup(const std::string& key, CachedSolve& out);

  /// Single-flight lookup. kHit: `out` is valid. kLead: the caller MUST
  /// later publish() or abandon() this key (FlightLease automates it).
  /// kSolve: solve independently, publishing is welcome but optional.
  Acquire acquire(const std::string& key, CachedSolve& out);

  /// Installs (key, value), evicting FIFO over capacity, and wakes the
  /// key's waiters. A key already resident is left as it is. Callable by
  /// leaders and independent solvers alike.
  void publish(const std::string& key, const CachedSolve& value);

  /// Releases a led flight without a value; the earliest waiter is
  /// promoted to leader (or all dissolve to independent solves).
  void abandon(const std::string& key);

  CacheStats stats() const;
  /// The "cache.solve" observability section (ping + sign-off).
  report::Json cache_json() const;

 private:
  friend struct SolveCacheTestPeer;  // corrupts resident entries in tests

  struct Entry {
    std::string payload;     ///< encode_payload(key, value) bytes
    std::uint64_t checksum;  ///< fnv1a(payload), re-verified on every hit
    /// This entry's node in Shard::order, so quarantine unlinks it in O(1).
    std::list<std::string>::iterator slot;
  };
  struct Shard {
    mutable Mutex mu;
    CondVar published;  ///< signalled on publish/abandon in this shard
    std::map<std::string, Entry> entries DSMT_GUARDED_BY(mu);
    /// FIFO eviction order: exactly the resident keys, oldest insert
    /// first. A quarantined entry leaves it with the entry, so a republished
    /// key is the youngest, never evicted by a stale slot.
    std::list<std::string> order DSMT_GUARDED_BY(mu);
    std::set<std::string> flights DSMT_GUARDED_BY(mu);
  };

  Shard& shard_for(const std::string& key);
  /// Verifies + decodes a resident entry; quarantines it on mismatch.
  bool verified_get(Shard& shard, const std::string& key, CachedSolve& out)
      DSMT_REQUIRES(shard.mu);

  const SolveCacheConfig config_;
  const std::size_t per_shard_cap_;
  // R10-ok: sized once in the constructor and never resized; all mutable
  // state lives inside each Shard under its own mutex.
  std::vector<std::unique_ptr<Shard>> shards_;

  // Counters are atomics: bumped under shard locks or none at all, read
  // lock-free by stats().
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> corrupt_quarantined_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// RAII companion for acquire() == kLead: abandons the flight on every
/// exit path unless the leader published (publish() then dismiss()).
class FlightLease {
 public:
  FlightLease() = default;
  ~FlightLease() {
    if (cache_ != nullptr) cache_->abandon(key_);
  }
  FlightLease(const FlightLease&) = delete;
  FlightLease& operator=(const FlightLease&) = delete;

  void arm(SolveCache* cache, std::string key) {
    cache_ = cache;
    key_ = std::move(key);
  }
  void dismiss() { cache_ = nullptr; }

 private:
  SolveCache* cache_ = nullptr;
  // R10-ok: single-owner RAII handle, never shared across threads.
  std::string key_;
};

}  // namespace dsmt::cache
