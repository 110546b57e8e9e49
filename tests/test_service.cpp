// Service-layer robustness suite (ctest label `service`): one solve attempt
// per request under ScopedFault injection, bounded admission with explicit
// shedding, the conservative analytic rung, and bit-identical batch
// responses across thread counts. Arms process-global fault plans and
// mutates the global thread count, so it lives in its own executable like
// the fault-injection and resilience suites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/signoff.h"
#include "core/splitmix.h"
#include "numeric/fault_injection.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "selfconsistent/batch.h"
#include "service/server.h"

namespace dsmt::service {
namespace {

using numeric::fault::FaultKind;
using numeric::fault::FaultPlan;
using numeric::fault::ScopedFault;

/// Kill the solver terminally: NaN residuals in Brent AND its bisection
/// fallback ("numeric/b" matches both), so no recovery stage can save it.
FaultPlan kill_solver() {
  return {FaultKind::kNanResidual, "numeric/b", 1, 0.0, ""};
}

Request wire_request(const std::string& id, double duty = 0.1,
                     double width_um = 0.5) {
  Request r;
  r.id = id;
  r.kind = RequestKind::kSelfConsistent;
  r.duty_cycle = duty;
  r.wire.width_um = width_um;
  r.wire.thickness_um = 0.9;
  r.wire.dielectric_um = 0.8;
  return r;
}

ServerConfig quiet_config() {
  ServerConfig c;
  c.publish_signoff = false;
  return c;
}

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

// --- admission control -------------------------------------------------------

TEST(Admission, ShedsBeyondQueueCapacityDeterministically) {
  ServerConfig cfg = quiet_config();
  cfg.queue_capacity = 4;
  Server server(cfg);
  std::vector<Request> batch;
  for (int i = 0; i < 10; ++i)
    batch.push_back(wire_request("r" + std::to_string(i)));
  const std::vector<Response> responses = server.submit_batch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, batch[i].id);
    if (i < 4) {
      EXPECT_TRUE(responses[i].ok()) << i;
    } else {
      EXPECT_EQ(responses[i].status, core::StatusCode::kRejectedOverload)
          << i;
      EXPECT_FALSE(responses[i].error.empty());
      EXPECT_FALSE(responses[i].diag.chain.empty());
    }
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.received, 10u);
  EXPECT_EQ(m.admitted, 4u);
  EXPECT_EQ(m.shed, 6u);
  EXPECT_EQ(m.ok_full, 4u);
}

TEST(Admission, ChaosBatchAlwaysGetsTerminalStructuredResponses) {
  ThreadCountGuard guard;
  parallel::set_thread_count(8);
  ServerConfig cfg = quiet_config();
  cfg.queue_capacity = 8;  // saturated: 1000 requests against 8 slots
  Server server(cfg);

  std::vector<Request> batch;
  batch.reserve(1000);
  for (int i = 0; i < 1000; ++i)
    batch.push_back(wire_request("chaos-" + std::to_string(i),
                                 i % 2 == 0 ? 0.1 : 0.33,
                                 0.4 + 0.01 * (i % 7)));
  std::vector<Response> responses;
  {
    ScopedFault fault(kill_solver());
    responses = server.submit_batch(batch);
  }
  ASSERT_EQ(responses.size(), batch.size());
  std::size_t shed = 0, degraded = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Response& resp = responses[i];
    EXPECT_EQ(resp.id, batch[i].id);
    // Terminal and structured: kOk (possibly degraded, then with a level
    // and the conservative guarantee) or an explicit classified failure.
    if (resp.ok()) {
      if (resp.degraded) {
        ++degraded;
        EXPECT_EQ(resp.degradation_level, DegradationLevel::kAnalyticBound);
        EXPECT_TRUE(resp.conservative);
      }
    } else {
      EXPECT_FALSE(resp.error.empty()) << i;
      if (resp.status == core::StatusCode::kRejectedOverload) ++shed;
    }
  }
  EXPECT_EQ(shed, 992u);      // everything beyond the 8 queue slots
  EXPECT_EQ(degraded, 8u);    // every admitted request degraded gracefully
}

TEST(Admission, BatchBitwiseIdenticalAcrossThreadCountsWhenDisarmed) {
  ThreadCountGuard guard;
  std::vector<Request> mixed;
  for (int i = 0; i < 48; ++i) {
    if (i % 11 == 7) {
      // A malformed request rides along: its structured kInvalidInput
      // response must be deterministic too.
      Request bad = wire_request("bad-" + std::to_string(i));
      bad.duty_cycle = 0.0;
      mixed.push_back(bad);
    } else if (i % 5 == 3) {
      Request cell;
      cell.id = "cell-" + std::to_string(i);
      cell.kind = RequestKind::kTableCell;
      cell.technology = "NTRS-250nm-Cu";
      cell.level = 1 + i % 5;
      cell.duty_cycle = i % 2 == 0 ? 0.1 : 1.0;
      mixed.push_back(cell);
    } else {
      mixed.push_back(wire_request("w-" + std::to_string(i),
                                   i % 3 == 0 ? 0.1 : 0.3,
                                   0.35 + 0.02 * (i % 9)));
    }
  }

  // Batches where unsolvable requests come before solvable ones. A reply
  // that depended on earlier requests (a failure count, a result cached
  // from another request) would differ from the reply the request gets
  // alone, and with the thread count.
  //   A: 400 requests on one Cu wire at j0 = 1e6 MA/cm^2, each with its
  //      own t_ref_c. The first 200 (r = 0.01) bracket no root; the last
  //      200 (r = 0.1) solve.
  //   B: 40 blocks of 6 unsolvable requests at j0 = 1e7 MA/cm^2, each
  //      followed by 4 at the paper's j0 = 0.6 MA/cm^2.
  std::vector<Request> input_a;
  std::vector<bool> solvable_a;
  for (int f = 0; f < 400; ++f) {
    Request r = wire_request("a-" + std::to_string(f), f < 200 ? 0.01 : 0.1);
    r.j0_MA_cm2 = 1e6;
    r.t_ref_c = 100.0 + 0.01 * f;
    input_a.push_back(r);
    solvable_a.push_back(f >= 200);
  }
  std::vector<Request> input_b;
  std::vector<bool> solvable_b;
  for (int block = 0; block < 40; ++block)
    for (int k = 0; k < 10; ++k) {
      Request r = wire_request("b-" + std::to_string(block) + "-" +
                               std::to_string(k));
      r.j0_MA_cm2 = k < 6 ? 1e7 : 0.6;
      input_b.push_back(r);
      solvable_b.push_back(k >= 6);
    }

  struct Run {
    std::vector<Response> responses;
    std::string payload;
  };
  const auto run_at = [](const std::vector<Request>& batch,
                         std::size_t capacity, std::size_t threads) {
    parallel::set_thread_count(threads);
    ServerConfig cfg = quiet_config();
    cfg.queue_capacity = capacity;
    Server server(cfg);
    Run run;
    run.responses = server.submit_batch(batch);
    for (const Response& resp : run.responses)
      run.payload += response_to_json(resp).dump(2) + "\n";
    return run;
  };

  // Some shedding in the mixed payload too.
  const Run mixed_serial = run_at(mixed, 32, 1);
  EXPECT_NE(mixed_serial.payload.find("rejected-overload"), std::string::npos);
  EXPECT_NE(mixed_serial.payload.find("invalid-input"), std::string::npos);
  for (const std::size_t threads : {2, 4, 8})
    EXPECT_EQ(mixed_serial.payload, run_at(mixed, 32, threads).payload)
        << "threads=" << threads;

  const auto check_input = [&](const char* name,
                               const std::vector<Request>& batch,
                               const std::vector<bool>& solvable,
                               std::size_t expect_solvable) {
    const Run serial = run_at(batch, batch.size(), 1);
    std::size_t full = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Response& resp = serial.responses[i];
      ASSERT_TRUE(resp.ok()) << name << " " << resp.id;
      EXPECT_EQ(resp.degradation_level, solvable[i]
                                            ? DegradationLevel::kFull
                                            : DegradationLevel::kAnalyticBound)
          << name << " " << resp.id;
      if (resp.degradation_level == DegradationLevel::kFull) ++full;
    }
    EXPECT_EQ(full, expect_solvable) << name;
    for (const std::size_t threads : {2, 4, 8})
      EXPECT_EQ(serial.payload, run_at(batch, batch.size(), threads).payload)
          << name << " threads=" << threads;
  };
  check_input("A", input_a, solvable_a, 200);
  check_input("B", input_b, solvable_b, 160);
}

// --- degradation ladder ------------------------------------------------------

TEST(Degrade, KilledSolverGetsAnalyticRungAfterOneAttempt) {
  Server server(quiet_config());
  const Request probe = wire_request("probe");

  // The fault injections one solve attempt takes under kill_solver().
  int per_attempt = 0;
  {
    ScopedFault fault(kill_solver());
    EXPECT_THROW(selfconsistent::solve_one(build_problem(probe).full),
                 SolveError);
    per_attempt = numeric::fault::injection_count();
  }
  ASSERT_GT(per_attempt, 0);

  std::vector<Response> killed;
  {
    ScopedFault fault(kill_solver());
    for (int i = 0; i < 4; ++i) {
      const int before = numeric::fault::injection_count();
      killed.push_back(server.handle(wire_request("f" + std::to_string(i))));
      // Exactly one solve attempt: no retry on the identical input.
      EXPECT_EQ(numeric::fault::injection_count() - before, per_attempt) << i;
    }
  }
  for (std::size_t i = 0; i < killed.size(); ++i) {
    const Response& resp = killed[i];
    EXPECT_TRUE(resp.ok()) << i;
    EXPECT_TRUE(resp.degraded) << i;
    EXPECT_EQ(resp.degradation_level, DegradationLevel::kAnalyticBound) << i;
    EXPECT_TRUE(resp.conservative) << i;
    std::size_t solves = 0;
    for (const core::DiagEvent& ev : resp.diag.chain)
      if (ev.kernel == "service/solve") ++solves;
    EXPECT_EQ(solves, 1u) << i;
    // No retry schedule exists to report, nor any pause to take.
    const report::Json doc = response_to_json(resp);
    EXPECT_EQ(doc.find("attempts"), nullptr) << i;
    EXPECT_EQ(doc.find("backoff_ns"), nullptr) << i;
  }

  // Disarmed: the very next request gets the full solve. Nothing cools
  // down, because no failure carries over from one request to the next.
  const Response after = server.handle(probe);
  EXPECT_TRUE(after.ok());
  EXPECT_FALSE(after.degraded);
  EXPECT_EQ(after.degradation_level, DegradationLevel::kFull);
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.ok_analytic, 4u);
  EXPECT_EQ(m.ok_full, 1u);
  EXPECT_EQ(m.failed, 0u);

  // The counters land under the sign-off "service" key while a publishing
  // server is alive.
  {
    ServerConfig pub = quiet_config();
    pub.publish_signoff = true;
    Server publisher(pub);
    auto source = core::signoff_service_source();
    ASSERT_TRUE(static_cast<bool>(source));
    const report::Json section = source();
    EXPECT_NE(section.find("queue"), nullptr);
    EXPECT_NE(section.find("outcomes"), nullptr);
    EXPECT_EQ(section.find("breaker"), nullptr);
  }
  EXPECT_FALSE(static_cast<bool>(core::signoff_service_source()));
}

TEST(Degrade, AnalyticBoundIsFeasibleAndBelowFullSolve) {
  for (const double duty : {0.05, 0.1, 0.3, 1.0}) {
    const Request req = wire_request("bound", duty);
    const LadderProblem ladder = build_problem(req);

    const AnalyticBound bound = analytic_quasi1d_bound(ladder.quasi1d);
    ASSERT_GT(bound.j_rms.value(), 0.0) << "r = " << duty;

    // Feasibility at the reported temperature: thermally below the trial
    // temperature, EM-compliant at it (Black's rule tightens as T rises, so
    // checking at the pessimistic trial temperature is the strong form).
    EXPECT_LE(bound.j_rms.value(),
              selfconsistent::jrms_thermal_at(ladder.quasi1d, bound.t_metal)
                      .value() *
                  (1.0 + 1e-12));
    EXPECT_LE(bound.j_avg.value(),
              selfconsistent::javg_em_at(ladder.quasi1d, bound.t_metal)
                      .value() *
                  (1.0 + 1e-12));

    // Conservative against the full quasi-2D self-consistent answer.
    const selfconsistent::Solution full =
        selfconsistent::solve(ladder.full);
    EXPECT_LE(bound.j_rms.value(), full.j_rms.value()) << "r = " << duty;
    // And against the quasi-1D self-consistent answer too (grid max of a
    // min is a lower bound on the true crossing).
    const selfconsistent::Solution q1d =
        selfconsistent::solve(ladder.quasi1d);
    EXPECT_LE(bound.j_rms.value(), q1d.j_rms.value()) << "r = " << duty;
    // The bound is useful, not vacuous: within a factor ~2 of the quasi-1D
    // truth on these geometries (grid resolution + min() slack).
    EXPECT_GT(bound.j_rms.value(), 0.4 * q1d.j_rms.value()) << duty;
  }
}

// --- request/response codec --------------------------------------------------

TEST(Codec, RequestRoundTripsThroughJson) {
  Request r = wire_request("id-\"quoted\"\n\x01", 0.3, 0.7);
  r.kind = RequestKind::kDutyCyclePoint;
  r.j0_MA_cm2 = 1.8;
  r.t_ref_c = 85.0;
  const Request back =
      request_from_json(report::Json::parse(request_to_json(r).dump(2)));
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.kind, r.kind);
  EXPECT_DOUBLE_EQ(back.duty_cycle, r.duty_cycle);
  EXPECT_DOUBLE_EQ(back.j0_MA_cm2, r.j0_MA_cm2);
  EXPECT_DOUBLE_EQ(back.t_ref_c, r.t_ref_c);
  EXPECT_DOUBLE_EQ(back.wire.width_um, r.wire.width_um);

  Request cell;
  cell.id = "t";
  cell.kind = RequestKind::kTableCell;
  cell.technology = "NTRS-100nm-AlCu";
  cell.level = 6;
  cell.dielectric = "polymer";
  const Request cell_back =
      request_from_json(report::Json::parse(request_to_json(cell).dump(-1)));
  EXPECT_EQ(cell_back.kind, RequestKind::kTableCell);
  EXPECT_EQ(cell_back.technology, cell.technology);
  EXPECT_EQ(cell_back.level, cell.level);
  EXPECT_EQ(cell_back.dielectric, cell.dielectric);
}

TEST(Codec, MalformedRequestsClassifyAsInvalidInput) {
  auto expect_invalid = [](const std::string& text) {
    try {
      parse_batch(text);
      FAIL() << "expected SolveError for: " << text;
    } catch (const SolveError& e) {
      EXPECT_EQ(e.status(), core::StatusCode::kInvalidInput) << text;
    }
  };
  expect_invalid("42");                               // not a batch shape
  expect_invalid("{\"no_requests\": []}");
  expect_invalid("[{\"kind\": \"warp-drive\"}]");     // unknown kind
  expect_invalid("[{\"kind\": [1]}]");                // wrong field type
  expect_invalid("[{\"wire\": 3}]");
  expect_invalid("[{\"kind\": \"table\"}]");          // missing technology
  expect_invalid("[oops]");                           // not JSON at all
  // 'level' outside int range or non-integral must classify, not hit a
  // double->int cast whose out-of-range behavior is undefined.
  expect_invalid(
      "[{\"kind\": \"table\", \"technology\": \"NTRS-250nm-Cu\","
      " \"level\": 1e300}]");
  expect_invalid(
      "[{\"kind\": \"table\", \"technology\": \"NTRS-250nm-Cu\","
      " \"level\": 2.5}]");
  expect_invalid(
      "[{\"kind\": \"table\", \"technology\": \"NTRS-250nm-Cu\","
      " \"level\": -3e9}]");

  // Accepted shapes: bare array and {"requests": [...]}.
  EXPECT_EQ(parse_batch("[]").size(), 0u);
  EXPECT_EQ(parse_batch("{\"requests\": [{}, {}]}").size(), 2u);

  // Malformed *values* surface as structured responses, not exceptions.
  Server server(quiet_config());
  Request bad = wire_request("bad");
  bad.wire.width_um = -1.0;
  const Response resp = server.handle(bad, 0);
  EXPECT_EQ(resp.status, core::StatusCode::kInvalidInput);
  EXPECT_FALSE(resp.error.empty());
  Request unknown_metal = wire_request("m");
  unknown_metal.wire.metal = "unobtainium";
  EXPECT_EQ(server.handle(unknown_metal, 0).status,
            core::StatusCode::kInvalidInput);
  // ... and get no degraded answer.
  EXPECT_EQ(server.metrics().failed, 2u);
  EXPECT_EQ(server.metrics().ok_analytic, 0u);
}

TEST(Codec, ResponsePayloadNumbersAreFinite) {
  Server server(quiet_config());
  const Response resp = server.handle(wire_request("fin"), 0);
  ASSERT_TRUE(resp.ok());
  const std::string dumped = response_to_json(resp).dump(-1);
  EXPECT_EQ(dumped.find("nan"), std::string::npos);
  EXPECT_EQ(dumped.find("inf"), std::string::npos);
  // Round-trips through the parser.
  const report::Json back = report::Json::parse(dumped);
  ASSERT_NE(back.find("solution"), nullptr);
  EXPECT_GT(back.find("solution")->find("j_rms_MA_cm2")->as_number(), 0.0);
}

/// `n` distinct requests of every kind as batch text, except that the
/// element at each index of `malformed` is that entry's text instead.
std::string decode_batch_text(
    std::size_t n, const std::map<std::size_t, std::string>& malformed) {
  std::string text = "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) text += ',';
    if (const auto bad = malformed.find(i); bad != malformed.end()) {
      text += bad->second;
      continue;
    }
    const double f = static_cast<double>(i);
    Request r = wire_request("r-" + std::to_string(i), 0.01 + 1e-5 * f,
                             0.3 + 1e-4 * f);
    r.j0_MA_cm2 = 0.6 + 1e-4 * f;
    r.t_ref_c = 80.0 + 1e-3 * f;
    if (i % 3 == 1) r.kind = RequestKind::kDutyCyclePoint;
    if (i % 3 == 2) {
      r.kind = RequestKind::kTableCell;
      r.technology = i % 2 ? "NTRS-250nm-Cu" : "NTRS-100nm-AlCu";
      r.level = 1 + static_cast<int>(i % 6);
      r.dielectric = i % 4 ? "oxide" : "polymer";
    }
    text += request_to_json(r).dump(-1);
  }
  return text + "]";
}

bool same_request(const Request& a, const Request& b) {
  return a.id == b.id && a.kind == b.kind && a.duty_cycle == b.duty_cycle &&
         a.j0_MA_cm2 == b.j0_MA_cm2 && a.t_ref_c == b.t_ref_c &&
         a.wire.metal == b.wire.metal && a.wire.width_um == b.wire.width_um &&
         a.wire.thickness_um == b.wire.thickness_um &&
         a.wire.dielectric_um == b.wire.dielectric_um &&
         a.wire.k_dielectric == b.wire.k_dielectric &&
         a.technology == b.technology && a.level == b.level &&
         a.dielectric == b.dielectric;
}

/// What a batch decodes to: its requests, or the what() of the error.
struct Decoded {
  std::vector<Request> requests;
  std::string error;
};

/// The error service/request raises for a batch of the wrong shape.
[[noreturn]] void bad_batch(const std::string& what) {
  core::SolverDiag diag;
  diag.record("service/request", core::StatusCode::kInvalidInput, 0, 0.0,
              what);
  throw SolveError("service/request: " + what, diag);
}

/// The serial reference for parse_batch: one Json::parse of the whole
/// document, then request_from_json element by element.
Decoded serial_decode(const std::string& text) {
  Decoded out;
  try {
    const report::Json doc = report::Json::parse(text);
    const report::Json* list = &doc;
    if (doc.is_object()) {
      list = doc.find("requests");
      if (list == nullptr || !list->is_array())
        bad_batch("batch object lacks a 'requests' array");
    } else if (!doc.is_array()) {
      bad_batch("batch document is neither an array nor an object");
    }
    for (std::size_t i = 0; i < list->size(); ++i)
      out.requests.push_back(request_from_json(list->at(i)));
  } catch (const std::exception& e) {
    out.requests.clear();
    out.error = e.what();
  }
  return out;
}

/// Mutants of the valid batch `text`: 1-3 seeded byte flips, truncations
/// and insertions of a structural byte or whitespace each.
std::vector<std::string> mutate_batch(const std::string& text,
                                      std::size_t count) {
  static const char kInserts[] = {',', ']', '}', '"', '\\', ' ', '\n', '\t'};
  std::vector<std::string> mutants;
  std::uint64_t state = 0x5eedULL;
  const auto draw = [&state](std::uint64_t n) {
    state += core::kSplitmix64Gamma;
    return core::mix64(state) % n;
  };
  for (std::size_t m = 0; m < count; ++m) {
    std::string mutant = text;
    for (std::uint64_t edits = 1 + draw(3); edits > 0; --edits) {
      const std::size_t at = draw(mutant.size());
      switch (draw(3)) {
        case 0:
          mutant[at] = static_cast<char>(mutant[at] ^ (1 << draw(8)));
          break;
        case 1:
          mutant.resize(at);
          break;
        default:
          mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(at),
                        kInserts[draw(sizeof kInserts)]);
      }
      if (mutant.empty()) break;
    }
    mutants.push_back(std::move(mutant));
  }
  return mutants;
}

TEST(Codec, ParallelBatchDecodeMatchesSerialLoop) {
  ThreadCountGuard restore;
  constexpr std::size_t kRequests = 10000;
  // Two malformed elements with different messages.
  const std::string unknown_kind = "{\"kind\": \"warp-drive\"}";
  const std::string malformed = decode_batch_text(
      kRequests, {{300, unknown_kind}, {9000, "{\"kind\": \"table\"}"}});
  // The message a serial loop meets first: element 300's.
  std::string first_error;
  try {
    request_from_json(report::Json::parse(unknown_kind));
  } catch (const SolveError& e) {
    first_error = e.what();
  }
  ASSERT_FALSE(first_error.empty());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::set_thread_count(threads);
    try {
      parse_batch(malformed);
      ADD_FAILURE() << "no error at " << threads << " threads";
    } catch (const SolveError& e) {
      EXPECT_EQ(e.status(), core::StatusCode::kInvalidInput);
      EXPECT_EQ(std::string(e.what()), first_error) << threads << " threads";
    }
  }

  const std::string text = decode_batch_text(kRequests, {});
  const report::Json doc = report::Json::parse(text);
  ASSERT_EQ(doc.size(), kRequests);
  std::vector<Request> serial;
  for (std::size_t i = 0; i < doc.size(); ++i)
    serial.push_back(request_from_json(doc.at(i)));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::set_thread_count(threads);
    const std::vector<Request> decoded = parse_batch(text);
    ASSERT_EQ(decoded.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const Request& a = serial[i];
      const Request& b = decoded[i];
      const bool same =
          a.id == b.id && a.kind == b.kind && a.duty_cycle == b.duty_cycle &&
          a.j0_MA_cm2 == b.j0_MA_cm2 && a.t_ref_c == b.t_ref_c &&
          a.wire.metal == b.wire.metal && a.wire.width_um == b.wire.width_um &&
          a.wire.thickness_um == b.wire.thickness_um &&
          a.wire.dielectric_um == b.wire.dielectric_um &&
          a.wire.k_dielectric == b.wire.k_dielectric &&
          a.technology == b.technology && a.level == b.level &&
          a.dielectric == b.dielectric;
      ASSERT_TRUE(same) << "request " << i << " at " << threads << " threads";
    }
  }

  // Mutants of a valid 300-element batch, plus hand-made edge documents:
  // parse_batch either decodes what the serial reference decodes or throws
  // the same what().
  const std::string small = decode_batch_text(300, {});
  std::vector<std::string> corpus = mutate_batch(small, 400);
  const std::string deep =
      "{\"id\": " + std::string(70, '[') + std::string(70, ']') + "}";
  const std::string duplicate = "{\"id\": \"a\", \"id\": \"b\"}";
  const std::string inner = small.substr(1, small.size() - 2);
  corpus.push_back(decode_batch_text(300, {{150, duplicate}}));
  corpus.push_back(decode_batch_text(300, {{42, deep}}));
  corpus.push_back("[]");
  corpus.push_back(" \n\t[ \r\n]\n");
  corpus.push_back(" \r\n\t" + small + "\n \t");
  corpus.push_back("[ " + inner + " ]");
  corpus.push_back("{\"requests\": " + small + "}");
  corpus.push_back("{\"requests\": 3}");
  corpus.push_back("\"batch\"");
  std::size_t errors = 0;
  for (const std::string& text : corpus) {
    const Decoded expected = serial_decode(text);
    if (!expected.error.empty()) ++errors;
    for (const std::size_t threads : {1u, 8u}) {
      parallel::set_thread_count(threads);
      Decoded got;
      try {
        got.requests = parse_batch(text);
      } catch (const std::exception& e) {
        got.error = e.what();
      }
      ASSERT_EQ(got.error, expected.error) << threads << " threads: " << text;
      ASSERT_EQ(got.requests.size(), expected.requests.size()) << text;
      for (std::size_t i = 0; i < got.requests.size(); ++i)
        ASSERT_TRUE(same_request(got.requests[i], expected.requests[i]))
            << "request " << i << " at " << threads << " threads: " << text;
    }
  }
  // The corpus exercises both outcomes.
  EXPECT_GT(errors, 0u);
  EXPECT_LT(errors, corpus.size());
}

// --- bounded thread-pool queue ----------------------------------------------

TEST(Pool, BoundedQueueDrainsBurstsWithoutGrowth) {
  ThreadCountGuard guard;
  parallel::set_thread_count(4);
  const std::size_t old_mark = parallel::queue_high_water();
  parallel::set_queue_high_water(2);
  EXPECT_EQ(parallel::queue_high_water(), 2u);

  const std::uint64_t drained_before = parallel::tasks_drained();
  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i)
    parallel::pool_submit([&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran.fetch_add(1);
    });
  // The producer above blocked at the high-water mark instead of queueing
  // all 64; wait for the drain.
  for (int spin = 0; spin < 4000 && ran.load() < kTasks; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_GE(parallel::tasks_drained() - drained_before,
            static_cast<std::uint64_t>(kTasks));
  EXPECT_GE(parallel::queue_peak_depth(), 1u);

  // Clamp: the mark can never be zero (that would wedge every producer).
  parallel::set_queue_high_water(0);
  EXPECT_EQ(parallel::queue_high_water(), 1u);
  parallel::set_queue_high_water(old_mark);
}

}  // namespace
}  // namespace dsmt::service
