// Writer differential suite (ctest labels `service` and `parallel`): every
// production reply is written straight from the Response by
// service::write_response, and the batch document by service::write_batch
// (streamed through a sink) or service::dump_batch (into a string). All
// must emit exactly the bytes of the tree-built reference
// (response_to_json / diag_to_json, then Json::dump) at every indent and at
// every thread count. Mutates the global thread count, so it gets its own
// executable.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "parallel/thread_pool.h"
#include "report/diagnostics.h"
#include "report/json.h"
#include "service/request.h"
#include "service/server.h"

namespace dsmt::service {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

Response ok_response(const std::string& id, RequestKind kind) {
  Response r;
  r.id = id;
  r.kind = kind;
  r.t_metal_c = 104.31234567891;
  r.delta_t_c = 4.31234567891;
  r.j_peak_MA_cm2 = 6.0e-3;
  r.j_rms_MA_cm2 = 1.8973665961010275;
  r.j_avg_MA_cm2 = 0.6;
  r.jpeak_em_only_MA_cm2 = 6.0;
  r.diag.record("eq13/solve", core::StatusCode::kOk, 7, 1.25e-13);
  return r;
}

/// Hand-made replies covering every branch of the reply schema, plus the
/// replies a real server gives a mixed batch.
std::vector<Response> response_corpus() {
  std::vector<Response> corpus;
  corpus.push_back(ok_response("full", RequestKind::kSelfConsistent));
  corpus.push_back(ok_response("duty", RequestKind::kDutyCyclePoint));
  corpus.push_back(ok_response("cell", RequestKind::kTableCell));

  Response degraded = ok_response("analytic", RequestKind::kSelfConsistent);
  degraded.degraded = true;
  degraded.degradation_level = DegradationLevel::kAnalyticBound;
  degraded.conservative = true;
  degraded.diag.record("eq13/solve", core::StatusCode::kMaxIterations, 100,
                       3.5e-2, "full rung failed");
  degraded.diag.record("service/analytic-bound", core::StatusCode::kOk, 0,
                       0.0);
  corpus.push_back(degraded);

  Response shed;
  shed.id = "shed";
  shed.status = core::StatusCode::kRejectedOverload;
  shed.error = "queue full: request shed";
  shed.diag.record("service/admission", shed.status, 0, 0.0, shed.error);
  corpus.push_back(shed);

  Response failed;
  failed.id = "failed";
  failed.kind = RequestKind::kTableCell;
  failed.status = core::StatusCode::kInvalidInput;
  failed.error = "duty_cycle must be in (0, 1]";
  failed.diag.record("service/request", failed.status, 0, 0.0, failed.error);
  corpus.push_back(failed);

  Response nan_residual = ok_response("nan", RequestKind::kSelfConsistent);
  nan_residual.diag.record("numeric/brent", core::StatusCode::kNonFinite, 3,
                           std::nan(""), "fault-injected");
  nan_residual.diag.residual = std::numeric_limits<double>::infinity();
  corpus.push_back(nan_residual);

  Response empty_chain = ok_response("bare", RequestKind::kSelfConsistent);
  empty_chain.diag = core::SolverDiag{};
  corpus.push_back(empty_chain);

  Response nasty;
  nasty.id = std::string("q\"b\\s/\t\n\r\x01\x1f\x7f") + "\xc3\xa9";
  nasty.status = core::StatusCode::kInvalidInput;
  nasty.error = std::string("bad \"id\" \\ ctl \x02") + '\0' + "nul";
  nasty.diag.record(nasty.id, nasty.status, -1, -0.0, nasty.error);
  corpus.push_back(nasty);

  std::vector<Request> batch;
  for (int i = 0; i < 6; ++i) {
    Request r;
    r.id = "live-" + std::to_string(i);
    r.kind = i % 2 ? RequestKind::kDutyCyclePoint
                   : RequestKind::kSelfConsistent;
    r.duty_cycle = i == 5 ? 0.0 : 0.05 * (i + 1);
    r.wire.width_um = 0.3 + 0.1 * i;
    batch.push_back(r);
  }
  Request cell;
  cell.id = "live-cell";
  cell.kind = RequestKind::kTableCell;
  cell.technology = "NTRS-250nm-Cu";
  cell.level = 3;
  batch.push_back(cell);
  ServerConfig config;
  config.publish_signoff = false;
  Server server(config);
  for (Response& r : server.submit_batch(batch)) corpus.push_back(r);
  return corpus;
}

std::string written(const Response& response, int indent) {
  report::JsonWriter out(indent);
  write_response(out, response);
  return out.take();
}

TEST(JsonWriter, WriteResponseMatchesTreeAtEveryIndent) {
  const std::vector<Response> corpus = response_corpus();
  for (const Response& r : corpus) {
    for (const int indent : {-1, 0, 2}) {
      EXPECT_EQ(written(r, indent), response_to_json(r).dump(indent))
          << "reply '" << r.id << "' at indent " << indent;
    }
    EXPECT_EQ(dump_response(r), response_to_json(r).dump(-1)) << r.id;
    // The diag writer on its own, at a nonzero starting depth.
    report::JsonWriter diag(2, 3);
    report::write_diag(diag, r.diag);
    report::JsonWriter tree(2, 3);
    report::diag_to_json(r.diag).write_to(tree);
    EXPECT_EQ(diag.take(), tree.take()) << r.id;
  }
}

TEST(JsonWriter, NonFiniteSolutionThrowsWhatTheTreeThrows) {
  Response r = ok_response("inf", RequestKind::kDutyCyclePoint);
  r.jpeak_em_only_MA_cm2 = std::numeric_limits<double>::infinity();
  std::string tree_error;
  try {
    response_to_json(r);
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), core::StatusCode::kNonFinite);
    tree_error = e.what();
  }
  ASSERT_FALSE(tree_error.empty());
  try {
    dump_response(r);
    ADD_FAILURE() << "write_response wrote a non-finite number";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), core::StatusCode::kNonFinite);
    EXPECT_EQ(std::string(e.what()), tree_error);
  }
}

TEST(JsonWriter, BatchDocumentMatchesTreeAtEveryIndentAndThreadCount) {
  ThreadCountGuard restore;
  const std::vector<Response> corpus = response_corpus();
  report::Json service = report::Json::object();
  service.set("requests", report::Json::integer(257))
      .set("shed", report::Json::integer(0))
      .set("levels", report::Json::array());
  // 255/256/257 straddle the size at which the writer fans out.
  for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 20000u}) {
    std::vector<Response> responses;
    for (std::size_t i = 0; i < n; ++i) {
      responses.push_back(corpus[i % corpus.size()]);
      responses.back().id.append(1, '#').append(std::to_string(i));
    }
    report::Json replies = report::Json::array();
    for (const Response& r : responses) replies.push(response_to_json(r));
    report::Json root = report::Json::object();
    root.set("responses", std::move(replies));
    root.set("service", service);
    for (const int indent : {-1, 0, 2}) {
      parallel::set_thread_count(1);
      const std::string expected = root.dump(indent);
      // Three threads puts the part boundaries off a power of two.
      for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
        parallel::set_thread_count(threads);
        EXPECT_EQ(dump_batch(responses, service, indent), expected)
            << n << " replies at indent " << indent << ", " << threads
            << " threads";
        EXPECT_EQ(root.dump(indent), expected)
            << n << " replies at indent " << indent << ", " << threads
            << " threads";
        std::string streamed;
        std::size_t runs = 0;
        write_batch(responses, service, indent, [&](std::string_view bytes) {
          streamed += bytes;
          ++runs;
        });
        EXPECT_EQ(streamed, expected)
            << n << " replies at indent " << indent << ", " << threads
            << " threads";
        // A fanned-out array reaches the sink as the bytes before it, its
        // parts (at most 8 per thread) and the rest; a serial one as one run.
        if (threads > 1 && n >= 256) {
          EXPECT_GE(runs, 3u) << n << " replies, " << threads << " threads";
          EXPECT_LE(runs, threads * 8 + 2) << n << " replies";
        } else {
          EXPECT_EQ(runs, 1u) << n << " replies, " << threads << " threads";
        }
      }
    }
  }
}

}  // namespace
}  // namespace dsmt::service
