#include "service/server.h"

#include <chrono>
#include <exception>
#include <new>
#include <optional>
#include <string>
#include <utility>

#include "cache/entry.h"
#include "core/run_context.h"
#include "core/signoff.h"
#include "parallel/parallel_for.h"
#include "selfconsistent/batch.h"

namespace dsmt::service {

namespace {

Response failure_response(const Request& request, core::StatusCode status,
                          std::string error, core::SolverDiag diag) {
  Response resp;
  resp.id = request.id;
  resp.kind = request.kind;
  resp.status = status;
  resp.error = std::move(error);
  resp.diag = std::move(diag);
  return resp;
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.publish_signoff)
    core::set_signoff_service_source(this, [this] { return service_json(); });
}

Server::~Server() {
  if (config_.publish_signoff) core::clear_signoff_service_source(this);
}

Response Server::shed_response(const Request& request) {
  const std::string error =
      "shed at admission: burst exceeded queue capacity " +
      std::to_string(config_.queue_capacity);
  core::SolverDiag diag;
  diag.record("service/admission", core::StatusCode::kRejectedOverload, 0,
              0.0, error);
  return failure_response(request, core::StatusCode::kRejectedOverload, error,
                          std::move(diag));
}

std::vector<Response> Server::submit_batch(
    const std::vector<Request>& batch) {
  received_ += batch.size();
  const std::size_t capacity =
      config_.queue_capacity > 0 ? config_.queue_capacity : 1;

  // Admission first, serially, in index order: the burst either fits in the
  // bounded queue or is shed. No thread ever influences the decision, so
  // identical batches admit identically at every DSMT_THREADS value.
  std::vector<std::size_t> admitted;
  admitted.reserve(batch.size() < capacity ? batch.size() : capacity);
  std::vector<Response> out(batch.size());
  std::vector<char> served(batch.size(), 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (admitted.size() < capacity) {
      admitted.push_back(i);
    } else {
      out[i] = shed_response(batch[i]);
      served[i] = 1;
      ++shed_;
    }
  }
  admitted_ += admitted.size();

  try {
    parallel::parallel_for(admitted.size(), [&](std::size_t k) {
      const std::size_t i = admitted[k];
      out[i] = guarded_execute(batch[i]);
      served[i] = 1;
    });
  } catch (const SolveError& interruption) {
    // Only a caller-context interruption (deadline / cancel observed by
    // parallel_for between items) reaches here: guarded_execute never
    // throws. Stamp every unserved slot so the batch stays complete, then
    // let the interruption propagate to the caller who armed it.
    for (const std::size_t i : admitted) {
      if (served[i]) continue;
      out[i] = failure_response(batch[i], interruption.status(),
                                interruption.what(), interruption.diag());
      ++failed_;
    }
    throw;
  }
  return out;
}

Response Server::handle(const Request& request, std::size_t) {
  ++received_;
  ++admitted_;
  return guarded_execute(request);
}

Response Server::guarded_execute(const Request& request) {
  try {
    return execute(request);
  } catch (const SolveError& e) {
    ++failed_;
    return failure_response(request, e.status(), e.what(), e.diag());
  } catch (const std::bad_alloc&) {
    // Allocation failure is admission-boundary overload, not bad input:
    // shed this request with the overload status so callers retry it
    // elsewhere instead of discarding it as malformed. Deliberately builds
    // only a slim response — the heap just refused us.
    const char* error = "allocation failure: request shed at admission";
    core::SolverDiag diag;
    diag.record("service/admission", core::StatusCode::kRejectedOverload, 0,
                0.0, error);
    ++shed_;
    return failure_response(request, core::StatusCode::kRejectedOverload,
                            error, std::move(diag));
  } catch (const std::exception& e) {
    core::SolverDiag diag;
    diag.record("service/execute", core::StatusCode::kInvalidInput, 0, 0.0,
                e.what());
    ++failed_;
    return failure_response(request, core::StatusCode::kInvalidInput,
                            e.what(), std::move(diag));
  }
}

Response Server::execute(const Request& request) {
  // Malformed requests throw here, before any kernel runs, and leave as a
  // typed kInvalidInput error through guarded_execute.
  const LadderProblem ladder = build_problem(request);

  // Per-request deadline budget, unless the caller's ambient deadline is
  // already tighter. The copy shares the caller's cancel token, so a batch
  // cancel still interrupts a request mid-deadline.
  std::optional<core::RunContext> deadline_ctx;
  std::optional<core::ScopedRunContext> deadline_scope;
  if (config_.deadline_ns > 0) {
    const core::RunContext* ambient = core::current_run_context();
    const double budget_s =
        static_cast<double>(config_.deadline_ns) * 1e-9;
    if (ambient == nullptr || !ambient->has_deadline() ||
        ambient->seconds_remaining() > budget_s) {
      deadline_ctx = ambient != nullptr ? *ambient : core::RunContext{};
      deadline_ctx->set_deadline(
          std::chrono::steady_clock::now() +
          std::chrono::nanoseconds(config_.deadline_ns));
      deadline_scope.emplace(*deadline_ctx);
    }
  }

  // Cache rung: sits above rung 0, inside the deadline scope so a parked
  // waiter observes the same budget the solve would. A verified hit
  // replays full_response over the cached numbers, the cold reply's exact
  // bytes; a miss either leads the single flight (publishing on success,
  // abandoning on every other exit via the lease) or solves independently.
  cache::SolveCache* const solve_cache = config_.solve_cache.get();
  std::string cache_key;
  cache::FlightLease flight;
  if (solve_cache != nullptr) {
    cache_key = cache::canonical_key(request);
    cache::CachedSolve hit;
    switch (solve_cache->acquire(cache_key, hit)) {
      case cache::Acquire::kHit: {
        Response out = full_response(request, ladder, cache::to_solution(hit));
        ++ok_full_;
        return out;
      }
      case cache::Acquire::kLead:
        flight.arm(solve_cache, cache_key);
        break;
      case cache::Acquire::kSolve:
        break;
    }
  }

  // Rung 0: one full quasi-2D solve. The kernel is deterministic, so a
  // failed attempt is not retried. std::bad_alloc passes through to
  // guarded_execute, which sheds it as overload rather than masking memory
  // pressure with the ladder.
  std::optional<selfconsistent::Solution> solution;
  core::StatusCode failure = core::StatusCode::kOk;
  core::SolverDiag diag;
  try {
    solution = selfconsistent::solve_one(ladder.full);
  } catch (const SolveError& e) {
    failure = e.status();
    diag.absorb(e.diag(), "service/solve");
  } catch (const std::bad_alloc&) {
    throw;
  } catch (const std::exception& e) {
    failure = core::StatusCode::kInvalidInput;
    diag.record("service/solve", failure, 0, 0.0, e.what());
  }
  if (solution) {
    Response out = full_response(request, ladder, *solution);
    // Only a canonical solve is cacheable: a recovered one carries diag
    // history a hit could not replay byte-identically.
    if (solve_cache != nullptr && cache::canonical_solve(*solution)) {
      solve_cache->publish(cache_key, cache::from_solution(*solution));
      flight.dismiss();
    }
    ++ok_full_;
    return out;
  }

  // An interrupted request gets no degraded answer: the caller's budget is
  // gone and any reply would arrive too late to be acted on.
  if (core::is_interruption(failure)) {
    ++failed_;
    return failure_response(request, failure,
                            std::string("request interrupted (") +
                                core::status_name(failure) + ")",
                            std::move(diag));
  }

  // Rung 2: iteration-free analytic quasi-1D bound.
  try {
    Response resp = analytic_response(request, ladder);
    resp.diag = std::move(diag);
    resp.diag.record("service/degrade", core::StatusCode::kOk, 2, 0.0,
                     "rung 2: quasi-1D analytic bound (phi = 0.88)");
    ++ok_analytic_;
    return resp;
  } catch (const std::exception& e) {
    diag.record("service/degrade", core::StatusCode::kInvalidInput, 2, 0.0,
                e.what());
  }
  ++failed_;
  return failure_response(request, failure,
                          std::string("full solve unavailable (") +
                              core::status_name(failure) +
                              ") and the analytic rung does not apply",
                          std::move(diag));
}

ServerMetrics Server::metrics() const {
  ServerMetrics m;
  m.received = received_.load();
  m.admitted = admitted_.load();
  m.shed = shed_.load();
  m.ok_full = ok_full_.load();
  m.ok_analytic = ok_analytic_.load();
  m.failed = failed_.load();
  return m;
}

report::Json Server::service_json() const {
  using report::Json;
  const ServerMetrics m = metrics();
  Json root = Json::object();

  Json queue = Json::object();
  queue
      .set("capacity",
           Json::integer(static_cast<long long>(config_.queue_capacity)))
      .set("received", Json::integer(static_cast<long long>(m.received)))
      .set("admitted", Json::integer(static_cast<long long>(m.admitted)))
      .set("shed", Json::integer(static_cast<long long>(m.shed)));
  root.set("queue", std::move(queue));

  Json outcomes = Json::object();
  outcomes
      .set("ok_full", Json::integer(static_cast<long long>(m.ok_full)))
      .set("ok_analytic",
           Json::integer(static_cast<long long>(m.ok_analytic)))
      .set("failed", Json::integer(static_cast<long long>(m.failed)));
  root.set("outcomes", std::move(outcomes));

  if (config_.solve_cache != nullptr) {
    Json cache = Json::object();
    cache.set("solve", config_.solve_cache->cache_json());
    root.set("cache", std::move(cache));
  }
  return root;
}

}  // namespace dsmt::service
