// Fault-tolerant in-process request service over the self-consistent solver.
//
// The Server is the hardened front end a full-chip caller (an EM/IR-drop
// engine firing thousands of per-wire queries) talks to. One batch in, one
// structured response per request out — ALWAYS:
//
//   admission   The batch is a burst against a bounded queue of
//               `queue_capacity` slots. Admission is decided serially in
//               index order before any parallel work, so the decision is a
//               pure function of the batch — requests that do not fit are
//               shed with kRejectedOverload (explicit load-shedding, never
//               unbounded buffering).
//   deadline    Each admitted request runs under a RunContext whose
//               monotonic budget is `deadline_ns` (0 = none), merged with
//               any tighter ambient deadline of the caller.
//   solve       Exactly one full quasi-2D solve attempt. The kernel is
//               deterministic, so a second attempt on the same input could
//               only fail the same way.
//   degradation A failed attempt is answered by the analytic quasi-1D bound
//               (degrade.h), degraded and conservative. An interrupted
//               attempt (deadline, cancel) gets its typed error instead.
//
// A reply is a function of its own request: no state carries from one
// request to the next, apart from the optional solve cache, whose hits
// replay the cold reply's bytes. Responses never escape as exceptions:
// every request — malformed, shed, failed, degraded — yields exactly one
// terminal Response. With fault injection disarmed the full batch output is
// bit-identical for every DSMT_THREADS value (admission is serial, the solve
// is deterministic, and parallel_for is index-addressed).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/solve_cache.h"
#include "report/json.h"
#include "service/degrade.h"
#include "service/request.h"

namespace dsmt::service {

struct ServerConfig {
  /// Bounded admission queue: per-burst slots before shedding starts.
  std::size_t queue_capacity = 256;
  /// Per-request deadline budget [ns] (0 = none). Merged with any tighter
  /// ambient deadline already installed by the caller.
  std::uint64_t deadline_ns = 0;
  /// Publish this server's service_json() under the sign-off "service" key
  /// (core/signoff.h) for the server's lifetime.
  bool publish_signoff = true;
  /// Content-addressed solve cache above ladder rung 0 (cache/solve_cache.h):
  /// verified hits replay the cold path's exact reply bytes, misses
  /// single-flight the solve. Shared (shared_ptr) so the supervise parent
  /// and the in-process service can serve from one cache. Null = no cache.
  std::shared_ptr<cache::SolveCache> solve_cache;
};

/// Monotonic counters since construction (snapshot).
struct ServerMetrics {
  std::uint64_t received = 0;     ///< requests seen at admission
  std::uint64_t admitted = 0;     ///< entered the bounded queue
  std::uint64_t shed = 0;         ///< kRejectedOverload at admission
  std::uint64_t ok_full = 0;      ///< answered by the full quasi-2D solve
  std::uint64_t ok_analytic = 0;  ///< answered by the analytic rung
  std::uint64_t failed = 0;       ///< terminal non-kOk responses
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves one burst: exactly one terminal Response per request, in
  /// request order. Never throws for per-request failures; propagates only
  /// a caller-context interruption after stamping every unserved slot with
  /// that interruption status — even then the returned vector is complete.
  std::vector<Response> submit_batch(const std::vector<Request>& batch);

  /// Serves one request, bypassing admission (it always "fits"). The
  /// second argument (the caller's sequence number) does not affect the
  /// reply.
  Response handle(const Request& request, std::size_t = 0);

  ServerMetrics metrics() const;
  const ServerConfig& config() const { return config_; }

  /// The sign-off "service" section: admission and outcome counters, and
  /// the solve cache's section when one is attached.
  report::Json service_json() const;

 private:
  Response execute(const Request& request);
  Response guarded_execute(const Request& request);
  Response shed_response(const Request& request);

  const ServerConfig config_;
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> ok_full_{0};
  std::atomic<std::uint64_t> ok_analytic_{0};
  std::atomic<std::uint64_t> failed_{0};
};

}  // namespace dsmt::service
