#include "report/diagnostics.h"

namespace dsmt::report {

Json diag_to_json(const core::SolverDiag& diag) {
  Json root = Json::object();
  root.set("kernel", Json::string(diag.kernel))
      .set("status", Json::string(core::status_name(diag.status)))
      .set("iterations", Json::integer(diag.iterations))
      .set("residual", Json::number_or_null(diag.residual))
      .set("recovered", Json::boolean(diag.recovered));
  Json chain = Json::array();
  for (const auto& ev : diag.chain) {
    Json entry = Json::object();
    entry.set("kernel", Json::string(ev.kernel))
        .set("status", Json::string(core::status_name(ev.status)))
        .set("iterations", Json::integer(ev.iterations))
        .set("residual", Json::number_or_null(ev.residual));
    if (!ev.note.empty()) entry.set("note", Json::string(ev.note));
    chain.push(std::move(entry));
  }
  root.set("chain", std::move(chain));
  return root;
}

void write_diag(JsonWriter& out, const core::SolverDiag& diag) {
  out.begin_object();
  out.key("kernel").string(diag.kernel);
  out.key("status").string(core::status_name(diag.status));
  out.key("iterations").integer(diag.iterations);
  out.key("residual").number_or_null(diag.residual);
  out.key("recovered").boolean(diag.recovered);
  out.key("chain").begin_array();
  for (const auto& ev : diag.chain) {
    out.begin_object();
    out.key("kernel").string(ev.kernel);
    out.key("status").string(core::status_name(ev.status));
    out.key("iterations").integer(ev.iterations);
    out.key("residual").number_or_null(ev.residual);
    if (!ev.note.empty()) out.key("note").string(ev.note);
    out.end_object();
  }
  out.end_array();
  out.end_object();
}

Json run_to_json(const core::RunContext& context) {
  Json run = Json::object();
  run.set("deadline_armed", Json::boolean(context.has_deadline()));
  if (context.has_deadline())
    run.set("deadline_remaining_s", Json::number(context.seconds_remaining()));
  run.set("cancelled", Json::boolean(context.cancel().cancel_requested()))
      .set("beats", Json::integer(static_cast<long long>(context.beats())));
  return run;
}

}  // namespace dsmt::report
