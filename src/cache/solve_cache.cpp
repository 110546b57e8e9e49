#include "cache/solve_cache.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cache/fnv.h"
#include "core/run_context.h"

namespace dsmt::cache {

SolveCache::SolveCache(SolveCacheConfig config)
    : config_(std::move(config)),
      per_shard_cap_(
          std::max<std::size_t>(1, config_.max_entries /
                                       std::max<std::size_t>(
                                           1, config_.shards))) {
  const std::size_t shard_count = std::max<std::size_t>(1, config_.shards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

SolveCache::Shard& SolveCache::shard_for(const std::string& key) {
  return *shards_[fnv1a(key) % shards_.size()];
}

bool SolveCache::verified_get(Shard& shard, const std::string& key,
                              CachedSolve& out) {
  const auto at = shard.entries.find(key);
  if (at == shard.entries.end()) return false;
  const Entry& entry = at->second;
  std::string decoded_key;
  CachedSolve value;
  if (fnv1a(entry.payload) == entry.checksum &&
      decode_payload(entry.payload, decoded_key, value) &&
      decoded_key == key) {
    out = value;
    return true;
  }
  // The entry lied — resident corruption. Quarantine: count, evict, and
  // let the caller solve for real.
  bytes_.fetch_sub(entry.payload.size(), std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  corrupt_quarantined_.fetch_add(1, std::memory_order_relaxed);
  shard.order.erase(entry.slot);
  shard.entries.erase(at);
  return false;
}

bool SolveCache::lookup(const std::string& key, CachedSolve& out) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  if (verified_get(shard, key, out)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

Acquire SolveCache::acquire(const std::string& key, CachedSolve& out) {
  Shard& shard = shard_for(key);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(config_.wait_budget_ns);
  const auto park = std::chrono::milliseconds(
      config_.poll_interval_ms > 0 ? config_.poll_interval_ms : 10);
  bool parked = false;
  MutexLock lock(shard.mu);
  for (;;) {
    if (verified_get(shard, key, out)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (parked) coalesced_.fetch_add(1, std::memory_order_relaxed);
      return Acquire::kHit;
    }
    if (shard.flights.insert(key).second) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return Acquire::kLead;
    }
    // Another thread is already solving this key. Park deadline-aware:
    // an interruption (drain cancel, ambient deadline) or an exhausted
    // wait budget dissolves the wait into an independent solve — the
    // caller still gets an answer, just not a coalesced one.
    if (core::run_check() != core::StatusCode::kOk ||
        std::chrono::steady_clock::now() >= deadline) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return Acquire::kSolve;
    }
    parked = true;
    shard.published.wait_for(shard.mu, park);
  }
}

void SolveCache::publish(const std::string& key, const CachedSolve& value) {
  Entry entry;
  entry.payload = encode_payload(key, value);
  entry.checksum = fnv1a(entry.payload);
  const std::size_t entry_bytes = entry.payload.size();
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  shard.flights.erase(key);
  // Woken waiters re-check only once this lock drops, after the install.
  shard.published.notify_all();
  // First writer wins; a racer's value is identical.
  const auto [at, inserted] = shard.entries.try_emplace(key, std::move(entry));
  if (!inserted) return;
  at->second.slot = shard.order.insert(shard.order.end(), key);
  entries_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  // order holds exactly the resident keys, so its head is always resident.
  while (shard.entries.size() > per_shard_cap_) {
    const auto victim = shard.entries.find(shard.order.front());
    bytes_.fetch_sub(victim->second.payload.size(),
                     std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    shard.order.pop_front();
    shard.entries.erase(victim);
  }
}

void SolveCache::abandon(const std::string& key) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  if (shard.flights.erase(key) > 0) shard.published.notify_all();
}

CacheStats SolveCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.corrupt_quarantined =
      corrupt_quarantined_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

report::Json SolveCache::cache_json() const {
  using report::Json;
  const CacheStats s = stats();
  Json out = Json::object();
  out.set("hits", Json::integer(static_cast<long long>(s.hits)))
      .set("misses", Json::integer(static_cast<long long>(s.misses)))
      .set("coalesced", Json::integer(static_cast<long long>(s.coalesced)))
      .set("inserts", Json::integer(static_cast<long long>(s.inserts)))
      .set("evictions", Json::integer(static_cast<long long>(s.evictions)))
      .set("corrupt_quarantined",
           Json::integer(static_cast<long long>(s.corrupt_quarantined)))
      .set("entries", Json::integer(static_cast<long long>(s.entries)))
      .set("bytes", Json::integer(static_cast<long long>(s.bytes)));
  return out;
}

}  // namespace dsmt::cache
