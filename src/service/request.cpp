#include "service/request.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <exception>
#include <stdexcept>

#include "materials/dielectric.h"
#include "materials/metal.h"
#include "parallel/parallel_for.h"
#include "report/diagnostics.h"
#include "selfconsistent/sweep.h"
#include "tech/ntrs.h"
#include "thermal/impedance.h"

namespace dsmt::service {

namespace {

[[noreturn]] void bad_request(const std::string& what) {
  core::SolverDiag diag;
  diag.record("service/request", core::StatusCode::kInvalidInput, 0, 0.0,
              what);
  throw SolveError("service/request: " + what, diag);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

double get_number(const report::Json& node, const char* key, double fallback) {
  const report::Json* member = node.find(key);
  return member != nullptr ? member->as_number() : fallback;
}

std::string get_string(const report::Json& node, const char* key,
                       std::string fallback) {
  const report::Json* member = node.find(key);
  return member != nullptr ? member->as_string() : fallback;
}

/// Integral member, validated before the narrowing cast: a client-supplied
/// {"level": 1e300} or NaN must classify as bad_request, never reach a
/// double->int conversion whose behavior is undefined out of range.
int get_int(const report::Json& node, const char* key, int fallback) {
  const report::Json* member = node.find(key);
  if (member == nullptr) return fallback;
  const double v = member->as_number();
  if (v != std::floor(v) || !(std::abs(v) <= 2147483647.0))
    bad_request(std::string("'") + key +
                "' must be an integral number within int range");
  return static_cast<int>(v);
}

RequestKind kind_from_name(const std::string& name) {
  const std::string k = lower(name);
  if (k == "self-consistent" || k == "sc") return RequestKind::kSelfConsistent;
  if (k == "duty-cycle-point" || k == "duty")
    return RequestKind::kDutyCyclePoint;
  if (k == "table-cell" || k == "table") return RequestKind::kTableCell;
  bad_request("unknown request kind '" + name + "'");
}

/// Built-in technology lookup for table-cell requests. Matches the node and
/// metallization in the name, case-insensitively: "NTRS-250nm-Cu",
/// "250nm_alcu", "ntrs100cu", ...
tech::Technology technology_by_name(const std::string& name) {
  const std::string n = lower(name);
  const bool alcu = n.find("alcu") != std::string::npos;
  if (n.find("250") != std::string::npos)
    return alcu ? tech::make_ntrs_250nm_alcu() : tech::make_ntrs_250nm_cu();
  if (n.find("180") != std::string::npos && !alcu)
    return tech::make_ntrs_180nm_cu();
  if (n.find("130") != std::string::npos && !alcu)
    return tech::make_ntrs_130nm_cu();
  if (n.find("100") != std::string::npos)
    return alcu ? tech::make_ntrs_100nm_alcu() : tech::make_ntrs_100nm_cu();
  throw std::out_of_range("service/request: unknown technology '" + name +
                          "'");
}

}  // namespace

const char* kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kSelfConsistent:
      return "self-consistent";
    case RequestKind::kDutyCyclePoint:
      return "duty-cycle-point";
    case RequestKind::kTableCell:
      return "table-cell";
  }
  return "unknown";
}

Request request_from_json(const report::Json& node) {
  if (!node.is_object()) bad_request("request is not a JSON object");
  Request r;
  r.id = get_string(node, "id", "");
  r.kind = kind_from_name(get_string(node, "kind", "self-consistent"));
  r.duty_cycle = get_number(node, "duty_cycle", r.duty_cycle);
  r.j0_MA_cm2 = get_number(node, "j0_MA_cm2", r.j0_MA_cm2);
  r.t_ref_c = get_number(node, "t_ref_c", r.t_ref_c);
  if (const report::Json* wire = node.find("wire")) {
    if (!wire->is_object()) bad_request("'wire' is not a JSON object");
    r.wire.metal = get_string(*wire, "metal", r.wire.metal);
    r.wire.width_um = get_number(*wire, "width_um", r.wire.width_um);
    r.wire.thickness_um =
        get_number(*wire, "thickness_um", r.wire.thickness_um);
    r.wire.dielectric_um =
        get_number(*wire, "dielectric_um", r.wire.dielectric_um);
    r.wire.k_dielectric =
        get_number(*wire, "k_dielectric", r.wire.k_dielectric);
  }
  r.technology = get_string(node, "technology", r.technology);
  r.level = get_int(node, "level", r.level);
  r.dielectric = get_string(node, "dielectric", r.dielectric);
  if (r.kind == RequestKind::kTableCell && r.technology.empty())
    bad_request("table-cell request without 'technology'");
  return r;
}

report::Json request_to_json(const Request& r) {
  using report::Json;
  Json node = Json::object();
  node.set("id", Json::string(r.id))
      .set("kind", Json::string(kind_name(r.kind)))
      .set("duty_cycle", Json::number(r.duty_cycle))
      .set("j0_MA_cm2", Json::number(r.j0_MA_cm2))
      .set("t_ref_c", Json::number(r.t_ref_c));
  if (r.kind == RequestKind::kTableCell) {
    node.set("technology", Json::string(r.technology))
        .set("level", Json::integer(r.level))
        .set("dielectric", Json::string(r.dielectric));
  } else {
    Json wire = Json::object();
    wire.set("metal", Json::string(r.wire.metal))
        .set("width_um", Json::number(r.wire.width_um))
        .set("thickness_um", Json::number(r.wire.thickness_um))
        .set("dielectric_um", Json::number(r.wire.dielectric_um))
        .set("k_dielectric", Json::number(r.wire.k_dielectric));
    node.set("wire", std::move(wire));
  }
  return node;
}

report::Json response_to_json(const Response& resp) {
  using report::Json;
  Json node = Json::object();
  node.set("id", Json::string(resp.id))
      .set("kind", Json::string(kind_name(resp.kind)))
      .set("status", Json::string(core::status_name(resp.status)))
      .set("degraded", Json::boolean(resp.degraded))
      .set("degradation_level",
           Json::integer(static_cast<long long>(resp.degradation_level)))
      .set("conservative", Json::boolean(resp.conservative));
  if (resp.ok()) {
    Json sol = Json::object();
    sol.set("t_metal_c", Json::number(resp.t_metal_c))
        .set("delta_t_c", Json::number(resp.delta_t_c))
        .set("j_peak_MA_cm2", Json::number(resp.j_peak_MA_cm2))
        .set("j_rms_MA_cm2", Json::number(resp.j_rms_MA_cm2))
        .set("j_avg_MA_cm2", Json::number(resp.j_avg_MA_cm2));
    if (resp.kind == RequestKind::kDutyCyclePoint)
      sol.set("jpeak_em_only_MA_cm2",
              Json::number(resp.jpeak_em_only_MA_cm2));
    node.set("solution", std::move(sol));
  } else {
    node.set("error", Json::string(resp.error));
  }
  node.set("diag", report::diag_to_json(resp.diag));
  return node;
}

void write_response(report::JsonWriter& out, const Response& resp) {
  out.begin_object();
  out.key("id").string(resp.id);
  out.key("kind").string(kind_name(resp.kind));
  out.key("status").string(core::status_name(resp.status));
  out.key("degraded").boolean(resp.degraded);
  out.key("degradation_level")
      .integer(static_cast<long long>(resp.degradation_level));
  out.key("conservative").boolean(resp.conservative);
  if (resp.ok()) {
    out.key("solution").begin_object();
    out.key("t_metal_c").number(resp.t_metal_c);
    out.key("delta_t_c").number(resp.delta_t_c);
    out.key("j_peak_MA_cm2").number(resp.j_peak_MA_cm2);
    out.key("j_rms_MA_cm2").number(resp.j_rms_MA_cm2);
    out.key("j_avg_MA_cm2").number(resp.j_avg_MA_cm2);
    if (resp.kind == RequestKind::kDutyCyclePoint)
      out.key("jpeak_em_only_MA_cm2").number(resp.jpeak_em_only_MA_cm2);
    out.end_object();
  } else {
    out.key("error").string(resp.error);
  }
  out.key("diag");
  report::write_diag(out, resp.diag);
  out.end_object();
}

std::string dump_response(const Response& response) {
  report::JsonWriter out;
  write_response(out, response);
  return out.take();
}

namespace {

void write_batch_document(report::JsonWriter& out,
                          const std::vector<Response>& responses,
                          const report::Json& service) {
  out.begin_object();
  out.key("responses").array(
      responses.size(), [&](report::JsonWriter& part, std::size_t i) {
        write_response(part, responses[i]);
      });
  out.key("service");
  service.write_to(out);
  out.end_object();
}

}  // namespace

void write_batch(const std::vector<Response>& responses,
                 const report::Json& service, int indent,
                 const report::JsonWriter::Sink& sink) {
  report::JsonWriter out(indent, 0, sink);
  write_batch_document(out, responses, service);
  out.flush();
}

std::string dump_batch(const std::vector<Response>& responses,
                       const report::Json& service, int indent) {
  // Without a sink the writer appends the parts into a string reserved to
  // their total size: one copy, where a sink growing a string copies more.
  report::JsonWriter out(indent);
  write_batch_document(out, responses, service);
  return out.take();
}

namespace {

/// The serial path: one tree of the whole document, then a decode per
/// element. It alone reads the {"requests": [...]} form and reports every
/// parse error at its byte offset in the document.
std::vector<Request> parse_batch_document(const std::string& text) {
  const report::Json doc = report::Json::parse(text);
  const report::Json* list = nullptr;
  if (doc.is_array()) {
    list = &doc;
  } else if (doc.is_object()) {
    list = doc.find("requests");
    if (list == nullptr || !list->is_array())
      bad_request("batch object lacks a 'requests' array");
  } else {
    bad_request("batch document is neither an array nor an object");
  }
  // Elements decode independently; parallel_for rethrows the lowest failing
  // index, so a malformed batch reports what a serial loop would hit first.
  return parallel::parallel_map<Request>(list->size(), [&](std::size_t i) {
    return request_from_json(list->at(i));
  });
}

}  // namespace

std::vector<Request> parse_batch(const std::string& text) {
  std::vector<report::Json::Span> spans;
  if (report::Json::array_spans(text, spans)) {
    // Each element parses and decodes on the worker that owns it, so its
    // tree dies there. No call throws inside the fan-out: every element must
    // be parsed before an error is chosen, because a parse error anywhere
    // outranks a decode error at any index.
    std::atomic<bool> unparsed{false};
    std::vector<std::exception_ptr> errors(spans.size());
    std::vector<Request> batch = parallel::parallel_map<Request>(
        spans.size(), [&](std::size_t i) {
          Request r;
          report::Json element;
          try {
            element = report::Json::parse_element(text, spans[i]);
          } catch (...) {
            unparsed.store(true, std::memory_order_relaxed);
            return r;
          }
          try {
            r = request_from_json(element);
          } catch (...) {
            errors[i] = std::current_exception();
          }
          return r;
        });
    if (!unparsed.load(std::memory_order_relaxed)) {
      for (const std::exception_ptr& error : errors)
        if (error != nullptr) std::rethrow_exception(error);
      return batch;
    }
  }
  // Not a plain array, or an element failed to parse: the serial path
  // reports the error at the document offset it always has.
  return parse_batch_document(text);
}

LadderProblem build_problem(const Request& r) {
  // Shape errors are classified here as kInvalidInput, before any kernel is
  // touched: client garbage gets a typed error, never a degraded answer.
  if (!std::isfinite(r.duty_cycle) || r.duty_cycle <= 0.0 ||
      r.duty_cycle > 1.0)
    bad_request("duty_cycle must be in (0, 1]");
  if (!std::isfinite(r.j0_MA_cm2) || r.j0_MA_cm2 <= 0.0)
    bad_request("j0_MA_cm2 must be positive and finite");
  if (!std::isfinite(r.t_ref_c) || r.t_ref_c + kCelsiusOffset <= 0.0)
    bad_request("t_ref_c must be finite and above absolute zero");
  if (r.kind == RequestKind::kTableCell && r.level < 1)
    bad_request("table-cell level must be >= 1");

  LadderProblem lp;
  const units::CurrentDensity j0 = MA_per_cm2(r.j0_MA_cm2);
  const units::Kelvin t_ref = celsius_to_kelvin(r.t_ref_c);

  if (r.kind == RequestKind::kTableCell) {
    const tech::Technology technology = technology_by_name(r.technology);
    const materials::Dielectric gap_fill =
        materials::dielectric_by_name(r.dielectric);
    lp.full = selfconsistent::make_level_problem(
        technology, r.level, gap_fill, thermal::kPhiQuasi2D, r.duty_cycle,
        j0);
    lp.quasi1d = selfconsistent::make_level_problem(
        technology, r.level, gap_fill, thermal::kPhiQuasi1D, r.duty_cycle,
        j0);
    lp.full.t_ref = t_ref;
    lp.quasi1d.t_ref = t_ref;
    return lp;
  }

  if (!std::isfinite(r.wire.width_um) || r.wire.width_um <= 0.0 ||
      !std::isfinite(r.wire.thickness_um) || r.wire.thickness_um <= 0.0 ||
      !std::isfinite(r.wire.dielectric_um) || r.wire.dielectric_um <= 0.0 ||
      !std::isfinite(r.wire.k_dielectric) || r.wire.k_dielectric <= 0.0)
    bad_request("wire geometry must be finite and positive");

  const materials::Metal metal = materials::metal_by_name(r.wire.metal);
  const units::Metres w_m = um(r.wire.width_um);
  const units::Metres t_m = um(r.wire.thickness_um);
  const units::Metres b = um(r.wire.dielectric_um);
  const units::ThermalConductivity k_d{r.wire.k_dielectric};

  const auto make = [&](double phi) {
    const units::Metres w_eff = thermal::effective_width(w_m, b, phi);
    const units::ThermalResistancePerLength rth =
        thermal::rth_per_length_uniform(b, k_d, w_eff);
    selfconsistent::Problem p;
    p.metal = metal;
    p.duty_cycle = r.duty_cycle;
    p.j0 = j0;
    p.t_ref = t_ref;
    p.heating_coefficient =
        selfconsistent::heating_coefficient(w_m, t_m, rth);
    return p;
  };
  lp.full = make(thermal::kPhiQuasi2D);
  lp.quasi1d = make(thermal::kPhiQuasi1D);
  return lp;
}

}  // namespace dsmt::service
