// Result-cache integrity suite (ctest label `cache`): the in-memory
// content-addressed solve cache of src/cache/. Proves the contract the
// cache exists to keep: a warm hit's reply bytes are identical to the cold
// solve's at every thread count and through both the in-process and the
// supervised (--isolate parent) paths; a flipped bit anywhere in a
// resident entry or its stored checksum is quarantined, never served; and
// a stampede of identical requests coalesces onto one leader. Mutates the
// global thread count and forks worker children, so it gets its own
// executable like the other chaos suites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cache/entry.h"
#include "cache/solve_cache.h"
#include "cache/warm.h"
#include "parallel/parallel_for.h"
#include "service/request.h"
#include "service/server.h"
#include "supervise/pool.h"
#include "supervise/protocol.h"

namespace dsmt::cache {

/// Reaches one resident entry's stored bytes, which no public call can
/// touch: the only way to test that verified_get refuses a corrupt entry.
struct SolveCacheTestPeer {
  /// Flips bit `bit` of the payload, or of the stored checksum when
  /// `in_checksum`.
  static void flip(SolveCache& cache, const std::string& key, std::size_t bit,
                   bool in_checksum) {
    SolveCache::Shard& shard = cache.shard_for(key);
    MutexLock lock(shard.mu);
    SolveCache::Entry& entry = shard.entries.at(key);
    if (in_checksum) {
      entry.checksum ^= std::uint64_t{1} << bit;
    } else {
      char& byte = entry.payload[bit / 8];
      byte = static_cast<char>(byte ^ (1 << (bit % 8)));
    }
  }
};

namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

service::Request wire_request(const std::string& id, double duty = 0.1,
                              double width_um = 0.5) {
  service::Request r;
  r.id = id;
  r.kind = service::RequestKind::kSelfConsistent;
  r.duty_cycle = duty;
  r.wire.width_um = width_um;
  r.wire.thickness_um = 0.9;
  r.wire.dielectric_um = 0.8;
  return r;
}

CachedSolve sample_value(int i) {
  CachedSolve v;
  v.t_metal_k = 373.15 + i;
  v.delta_t_k = 4.25 + 0.5 * i;
  v.j_peak_A_m2 = 1.0e10 + 1.0e7 * i;
  v.j_rms_A_m2 = 3.0e9 + 1.0e6 * i;
  v.j_avg_A_m2 = 1.0e9 + 1.0e5 * i;
  v.residual = 1.0e-13 / (1 + i);
  v.iterations = 7 + i;
  return v;
}

bool bitwise_equal(const CachedSolve& a, const CachedSolve& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

service::ServerConfig quiet_config() {
  service::ServerConfig c;
  c.publish_signoff = false;
  return c;
}

supervise::SuperviseConfig quiet_pool(std::size_t workers) {
  supervise::SuperviseConfig c;
  c.workers = workers;
  c.service.publish_signoff = false;
  c.sleep_on_restart_backoff = false;
  c.publish_signoff = false;
  c.poll_interval_ms = 5;
  return c;
}

// --- codec ------------------------------------------------------------------

TEST(Codec, PayloadRoundTripsBitwise) {
  const CachedSolve value = sample_value(3);
  const std::string key = "{\"duty_cycle\":0.25}";
  const std::string payload = encode_payload(key, value);
  std::string decoded_key;
  CachedSolve decoded;
  ASSERT_TRUE(decode_payload(payload, decoded_key, decoded));
  EXPECT_EQ(decoded_key, key);
  EXPECT_TRUE(bitwise_equal(decoded, value));
}

TEST(Codec, PayloadRejectsTruncationAndPadding) {
  const std::string payload = encode_payload("k", sample_value(0));
  std::string key;
  CachedSolve value;
  for (std::size_t cut = 0; cut < payload.size(); ++cut)
    EXPECT_FALSE(decode_payload(payload.substr(0, cut), key, value)) << cut;
  EXPECT_FALSE(decode_payload(payload + "x", key, value));
}

TEST(Codec, CanonicalKeyIgnoresRequestId) {
  service::Request a = wire_request("first");
  service::Request b = wire_request("second");
  EXPECT_EQ(canonical_key(a), canonical_key(b));
  b.duty_cycle = 0.11;
  EXPECT_NE(canonical_key(a), canonical_key(b));
}

// --- single-flight coalescing ----------------------------------------------

TEST(SingleFlight, StampedeElectsOneLeaderAndCoalescesWaiters) {
  SolveCache cache(SolveCacheConfig{});
  constexpr int kThreads = 8;
  std::atomic<int> leads{0}, hits{0}, solves{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      CachedSolve out;
      switch (cache.acquire("stampede", out)) {
        case Acquire::kLead:
          ++leads;
          // Hold the flight long enough for the others to park.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          cache.publish("stampede", sample_value(4));
          break;
        case Acquire::kHit:
          EXPECT_TRUE(bitwise_equal(out, sample_value(4)));
          ++hits;
          break;
        case Acquire::kSolve:
          ++solves;
          break;
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(leads.load(), 1);
  EXPECT_EQ(leads.load() + hits.load() + solves.load(), kThreads);
  // The default 2 s wait budget dwarfs the 50 ms hold: every waiter
  // coalesces instead of giving up.
  EXPECT_EQ(hits.load(), kThreads - 1);
  EXPECT_GE(cache.stats().coalesced, static_cast<std::uint64_t>(
                                         hits.load() > 0 ? 1 : 0));
}

TEST(SingleFlight, AbandonPromotesAWaiterInsteadOfWedgingIt) {
  SolveCache cache(SolveCacheConfig{});
  CachedSolve out;
  ASSERT_EQ(cache.acquire("abandoned", out), Acquire::kLead);
  std::atomic<bool> waiter_done{false};
  std::thread waiter([&] {
    CachedSolve theirs;
    const Acquire got = cache.acquire("abandoned", theirs);
    // The promoted waiter becomes the new leader (or solves on its own if
    // its budget expired first — never an unanswered wedge).
    EXPECT_NE(got, Acquire::kHit);
    if (got == Acquire::kLead) cache.abandon("abandoned");
    waiter_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  cache.abandon("abandoned");
  waiter.join();
  EXPECT_TRUE(waiter_done.load());
}

TEST(SingleFlight, WaiterBudgetExpiryDissolvesIntoIndependentSolve) {
  SolveCacheConfig cfg;
  cfg.wait_budget_ns = 20'000'000;  // 20 ms
  cfg.poll_interval_ms = 2;
  SolveCache cache(cfg);
  CachedSolve out;
  ASSERT_EQ(cache.acquire("wedged", out), Acquire::kLead);
  // The leader never publishes; the waiter must give up and solve.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(cache.acquire("wedged", out), Acquire::kSolve);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, std::chrono::seconds(2));
  cache.abandon("wedged");
}

// --- eviction ---------------------------------------------------------------

TEST(Eviction, FifoBoundsResidencyPerShard) {
  SolveCacheConfig cfg;
  cfg.shards = 1;
  cfg.max_entries = 4;
  SolveCache cache(cfg);
  for (int i = 0; i < 10; ++i)
    cache.publish("evict-" + std::to_string(i), sample_value(i));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 4u);
  EXPECT_EQ(s.evictions, 6u);
  // Oldest gone, newest resident.
  CachedSolve hit;
  EXPECT_FALSE(cache.lookup("evict-0", hit));
  EXPECT_TRUE(cache.lookup("evict-9", hit));
}

TEST(Eviction, RepublishedQuarantinedKeyIsYoungest) {
  // A key quarantined and published again is the newest insert: the next
  // eviction takes the oldest surviving key, not the fresh entry.
  SolveCacheConfig cfg;
  cfg.shards = 1;
  cfg.max_entries = 4;
  SolveCache cache(cfg);
  for (int i = 0; i < 4; ++i)
    cache.publish("k" + std::to_string(i), sample_value(i));
  CachedSolve hit;
  SolveCacheTestPeer::flip(cache, "k0", 0, /*in_checksum=*/true);
  ASSERT_FALSE(cache.lookup("k0", hit));  // quarantined
  ASSERT_EQ(cache.stats().corrupt_quarantined, 1u);
  cache.publish("k0", sample_value(0));
  cache.publish("k4", sample_value(4));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 4u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_FALSE(cache.lookup("k1", hit));
  for (const char* key : {"k0", "k2", "k3", "k4"})
    EXPECT_TRUE(cache.lookup(key, hit)) << key;
}

// --- end-to-end byte identity ----------------------------------------------

std::vector<service::Request> identity_requests() {
  std::vector<service::Request> batch;
  for (int i = 0; i < 8; ++i)
    batch.push_back(wire_request("ident-" + std::to_string(i),
                                 0.05 + 0.01 * i));
  service::Request cell;
  cell.id = "ident-cell";
  cell.kind = service::RequestKind::kTableCell;
  cell.technology = "NTRS-250nm-Cu";
  cell.level = 2;
  cell.duty_cycle = 1.0;
  batch.push_back(cell);
  return batch;
}

std::vector<std::string> serve_bytes(service::Server& server,
                                     const std::vector<service::Request>& rs) {
  std::vector<std::string> bytes;
  bytes.reserve(rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i)
    bytes.push_back(service::response_to_json(server.handle(rs[i], i))
                        .dump(-1));
  return bytes;
}

TEST(ByteIdentity, WarmHitEqualsColdSolveAcrossThreadCounts) {
  ThreadCountGuard guard;
  const std::vector<service::Request> requests = identity_requests();
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    parallel::set_thread_count(threads);
    // Cold reference: no cache attached at all.
    service::Server bare(quiet_config());
    const std::vector<std::string> cold = serve_bytes(bare, requests);

    service::ServerConfig cfg = quiet_config();
    cfg.solve_cache = std::make_shared<SolveCache>(SolveCacheConfig{});
    service::Server cached(cfg);
    // First pass misses (and publishes); second pass hits.
    const std::vector<std::string> miss_pass = serve_bytes(cached, requests);
    const std::vector<std::string> hit_pass = serve_bytes(cached, requests);
    EXPECT_EQ(cold, miss_pass) << "threads=" << threads;
    EXPECT_EQ(cold, hit_pass) << "threads=" << threads;
    const CacheStats s = cfg.solve_cache->stats();
    EXPECT_GT(s.hits, 0u) << "threads=" << threads;
    EXPECT_EQ(s.corrupt_quarantined, 0u);
  }
}

TEST(Integrity, EveryResidentBitFlipIsQuarantinedNeverServed) {
  // One resident entry, corrupted one bit at a time: every payload bit
  // (length, key, each value field) and every bit of its stored checksum.
  // The server that meets the corrupt entry must answer with the cold
  // bytes, and a plain lookup must miss; both count a quarantine.
  const service::Request request = wire_request("flip");
  service::Server bare(quiet_config());
  const std::string cold =
      service::response_to_json(bare.handle(request, 0)).dump(-1);

  service::ServerConfig cfg = quiet_config();
  cfg.solve_cache = std::make_shared<SolveCache>(SolveCacheConfig{});
  SolveCache& cache = *cfg.solve_cache;
  service::Server cached(cfg);
  const auto reply = [&] {
    return service::response_to_json(cached.handle(request, 0)).dump(-1);
  };
  ASSERT_EQ(reply(), cold);  // miss: solves and publishes
  const std::string key = canonical_key(request);
  // The layout is fixed-width once the key is fixed.
  const std::size_t payload_bits = encode_payload(key, {}).size() * 8;

  std::uint64_t quarantined = 0;
  for (const bool in_checksum : {false, true}) {
    const std::size_t bits = in_checksum ? 64 : payload_bits;
    for (std::size_t bit = 0; bit < bits; ++bit) {
      SCOPED_TRACE((in_checksum ? "checksum bit " : "payload bit ") +
                   std::to_string(bit));
      // The server meets the corrupt entry: cold bytes, one quarantine,
      // and its re-solve publishes the entry again.
      SolveCacheTestPeer::flip(cache, key, bit, in_checksum);
      ASSERT_EQ(reply(), cold);
      ASSERT_EQ(cache.stats().corrupt_quarantined, ++quarantined);
      // A plain lookup meets the same flip: a miss, one quarantine.
      SolveCacheTestPeer::flip(cache, key, bit, in_checksum);
      CachedSolve served;
      ASSERT_FALSE(cache.lookup(key, served));
      ASSERT_EQ(cache.stats().corrupt_quarantined, ++quarantined);
      ASSERT_EQ(reply(), cold);  // re-publish for the next bit
    }
  }
}

TEST(ByteIdentity, SupervisedParentCacheHitEqualsWorkerSolvedBytes) {
  // The same requests through two supervised pools: one plain, one whose
  // parent shares a pre-warmed cache and answers from it without leasing a
  // worker. The client-visible frames must be identical.
  const std::vector<service::Request> requests = identity_requests();

  supervise::WorkerPool plain(quiet_pool(1));
  std::vector<std::string> worker_frames;
  for (std::size_t i = 0; i < requests.size(); ++i)
    worker_frames.push_back(plain.execute(requests[i], i).frame);
  plain.shutdown();

  supervise::SuperviseConfig cfg = quiet_pool(1);
  cfg.solve_cache = std::make_shared<SolveCache>(SolveCacheConfig{});
  const WarmReport warmed = warm_cache(*cfg.solve_cache, requests);
  ASSERT_EQ(warmed.inserted, requests.size());
  supervise::WorkerPool warmed_pool(cfg);
  std::vector<std::string> cached_frames;
  for (std::size_t i = 0; i < requests.size(); ++i)
    cached_frames.push_back(warmed_pool.execute(requests[i], i).frame);
  const supervise::SuperviseStats stats = warmed_pool.stats();
  warmed_pool.shutdown();

  EXPECT_EQ(worker_frames, cached_frames);
  EXPECT_EQ(stats.cache_hits, requests.size());
}

TEST(ByteIdentity, WarmedLatticeCoversTheLoadgenStream) {
  // The --warm-cache lattice must actually hit for the duty sweep the
  // loadgen (and the benchmarks) replay — a warm miss would silently turn
  // the warm-hit benchmark into a cold one.
  SolveCache cache(SolveCacheConfig{});
  const WarmReport report = warm_hot_lattice(cache);
  EXPECT_EQ(report.requested, report.solved);
  EXPECT_EQ(report.solved, report.inserted);
  for (int i = 0; i < 40; ++i) {
    service::Request r;  // the loadgen request, id aside
    r.id = "load-0-" + std::to_string(i);
    r.kind = service::RequestKind::kSelfConsistent;
    r.duty_cycle = 0.05 + 0.01 * (i % 40);
    CachedSolve hit;
    EXPECT_TRUE(cache.lookup(canonical_key(r), hit)) << i;
  }
}

// --- observability ----------------------------------------------------------

TEST(Observability, ServiceJsonReportsSolveSection) {
  service::ServerConfig cfg = quiet_config();
  cfg.solve_cache = std::make_shared<SolveCache>(SolveCacheConfig{});
  service::Server server(cfg);
  const std::vector<service::Request> requests = identity_requests();
  for (std::size_t i = 0; i < requests.size(); ++i)
    (void)server.handle(requests[i], i);

  const report::Json doc = server.service_json();
  const report::Json* cache_node = doc.find("cache");
  ASSERT_NE(cache_node, nullptr);
  EXPECT_EQ(cache_node->find("reference"), nullptr);
  const report::Json* solve = cache_node->find("solve");
  ASSERT_NE(solve, nullptr);
  for (const char* field :
       {"hits", "misses", "coalesced", "inserts", "evictions",
        "corrupt_quarantined", "entries", "bytes"})
    EXPECT_NE(solve->find(field), nullptr) << field;

  // Without an attached solve cache there is no cache section at all.
  service::Server bare(quiet_config());
  EXPECT_EQ(bare.service_json().find("cache"), nullptr);
}

}  // namespace
}  // namespace dsmt::cache
