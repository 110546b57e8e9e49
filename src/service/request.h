// Request/response schema of the batch request service.
//
// A request names one design-rule query against the Eq. 13 self-consistent
// solver: a direct-geometry solve (kSelfConsistent), the same solve plus the
// EM-only reference line of Fig. 2 (kDutyCyclePoint), or a design-rule table
// cell addressed by technology/level/gap-fill (kTableCell). Requests and
// responses cross the process boundary as JSON (report/json.h); the codec
// here is strict — unknown kinds, malformed fields, and non-finite numbers
// raise dsmt::SolveError (kInvalidInput) instead of guessing.
//
// Every response is terminal and structured: success (possibly degraded,
// with `degradation_level` and a conservative-direction guarantee on j_rms),
// kRejectedOverload from admission control, or a classified failure. The
// full SolverDiag chain (the solve attempt and the degradation rung) rides
// along for diagnostics.
#pragma once

#include <string>
#include <vector>

#include "core/status.h"
#include "report/json.h"
#include "selfconsistent/solver.h"

namespace dsmt::service {

enum class RequestKind { kSelfConsistent = 0, kDutyCyclePoint, kTableCell };

/// Short stable name ("self-consistent", "duty-cycle-point", "table-cell").
const char* kind_name(RequestKind kind);

/// Direct wire geometry for kSelfConsistent / kDutyCyclePoint requests: an
/// isolated line over a uniform dielectric (paper Eq. 10/15 with a single
/// slab).
struct WireSpec {
  std::string metal = "cu";     ///< metal_by_name key ("cu", "alcu", ...)
  double width_um = 1.0;        ///< line width W_m [um]
  double thickness_um = 1.0;    ///< metal thickness t_m [um]
  double dielectric_um = 1.0;   ///< underlying dielectric thickness b [um]
  double k_dielectric = 1.15;   ///< dielectric conductivity [W/(m*K)]
};

struct Request {
  std::string id;  ///< caller correlation id, echoed in the response
  RequestKind kind = RequestKind::kSelfConsistent;
  double duty_cycle = 0.1;  ///< r [1]
  double j0_MA_cm2 = 0.6;   ///< design-rule j_avg at t_ref [MA/cm^2]
  double t_ref_c = 100.0;   ///< reference junction temperature [degC]
  WireSpec wire;            ///< direct-geometry kinds
  std::string technology;   ///< kTableCell: technology name ("NTRS-250nm-Cu")
  int level = 1;            ///< kTableCell: 1-based metal level
  std::string dielectric = "oxide";  ///< kTableCell: gap-fill name
};

/// Degradation ladder rungs, most faithful first. The response field
/// `degradation_level` carries the integer value, so it is 0 or 2.
///   0 full       quasi-2D self-consistent solve (phi = 2.45)
///   2 analytic   iteration-free quasi-1D bound (phi = 0.88)
enum class DegradationLevel {
  kFull = 0,
  kAnalyticBound = 2,
};

struct Response {
  std::string id;
  RequestKind kind = RequestKind::kSelfConsistent;
  core::StatusCode status = core::StatusCode::kOk;
  bool degraded = false;
  DegradationLevel degradation_level = DegradationLevel::kFull;
  /// True when the payload carries the degraded-rung guarantee: j_rms (and
  /// j_peak/j_avg derived from it) never exceed the full solve's values and
  /// the operating point is feasible (docs/THEORY.md §15).
  bool conservative = false;

  // Solution payload, valid when status == kOk.
  double t_metal_c = 0.0;        ///< metal temperature [degC]
  double delta_t_c = 0.0;        ///< T_m - T_ref [degC]
  double j_peak_MA_cm2 = 0.0;    ///< allowed peak density [MA/cm^2]
  double j_rms_MA_cm2 = 0.0;     ///< allowed RMS density [MA/cm^2]
  double j_avg_MA_cm2 = 0.0;     ///< allowed average density [MA/cm^2]
  double jpeak_em_only_MA_cm2 = 0.0;  ///< kDutyCyclePoint: j0 / r [MA/cm^2]

  core::SolverDiag diag;  ///< the solve attempt and the degradation rung
  std::string error;      ///< summary when status != kOk

  bool ok() const { return status == core::StatusCode::kOk; }
};

/// Decodes one request object. Unknown/malformed fields raise
/// dsmt::SolveError (kInvalidInput); absent optional fields keep defaults.
Request request_from_json(const report::Json& node);

report::Json request_to_json(const Request& request);
/// The reply object as a tree: the reference that write_response is tested
/// against.
report::Json response_to_json(const Response& response);
/// Writes the object response_to_json builds, field for field and in the
/// same order, as the writer's next value. Throws what response_to_json
/// throws (kNonFinite for a non-finite solution field).
void write_response(report::JsonWriter& out, const Response& response);
/// Compact JSON text of one reply, through write_response: the payload of
/// a reply frame.
std::string dump_response(const Response& response);
/// Writes the batch reply document {"responses": [...], "service": ...} at
/// `indent` through `sink`, in document order. Runs of replies are written
/// into parts inside the parallel fan-out and handed to the sink in index
/// order, so no tree of the replies and no joined copy of the document is
/// built, and the bytes are the same at every thread count.
void write_batch(const std::vector<Response>& responses,
                 const report::Json& service, int indent,
                 const report::JsonWriter::Sink& sink);
/// The bytes write_batch hands its sink, as one string.
std::string dump_batch(const std::vector<Response>& responses,
                       const report::Json& service, int indent);

/// Parses a batch document: a bare array of request objects, or an object
/// carrying a "requests" array. Throws dsmt::SolveError (kInvalidInput).
/// A bare array parses and decodes element by element in parallel, so no
/// tree of the whole document is built. A malformed batch throws what a
/// serial parse-then-decode would: a parse error of the whole document, or
/// else the decode error of its lowest malformed index.
std::vector<Request> parse_batch(const std::string& text);

/// The ladder's working set for one request: the quasi-2D problem the full
/// rung solves and the quasi-1D problem the analytic rung bounds.
struct LadderProblem {
  selfconsistent::Problem full;
  selfconsistent::Problem quasi1d;
};

/// Builds the ladder problems for a request. Throws std::invalid_argument,
/// std::out_of_range (unknown metal/technology/dielectric names), or
/// dsmt::SolveError (kInvalidInput) on malformed specs.
LadderProblem build_problem(const Request& request);

}  // namespace dsmt::service
