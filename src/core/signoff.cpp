#include "core/signoff.h"

#include <sstream>

#include "core/thread_annotations.h"
#include "em/budget.h"
#include "numeric/constants.h"
#include "report/diagnostics.h"
#include "report/json.h"
#include "report/table.h"

namespace dsmt::core {

namespace {

/// Registered provider of the sign-off "service" section, with the owner
/// token that registered it. Guarded by its mutex; the function is invoked
/// while the lock is held, so clearing synchronizes with in-flight calls.
struct ServiceSourceSlot {
  Mutex mu;
  const void* owner DSMT_GUARDED_BY(mu) = nullptr;
  std::function<report::Json()> source DSMT_GUARDED_BY(mu);
};

ServiceSourceSlot& service_source_slot() {
  static ServiceSourceSlot slot;
  return slot;
}

/// Invokes the registered source (if any) while holding the slot lock.
/// Invoking outside the lock would race with clear_signoff_service_source:
/// the owner (a service::Server being destroyed on another thread) could be
/// freed between copying the std::function and calling it. The source must
/// therefore never call back into this slot's API.
bool invoke_signoff_service_source(report::Json& out) {
  ServiceSourceSlot& slot = service_source_slot();
  MutexLock lock(slot.mu);
  if (!slot.source) return false;
  out = slot.source();
  return true;
}

}  // namespace

void set_signoff_service_source(const void* owner,
                                std::function<report::Json()> source) {
  ServiceSourceSlot& slot = service_source_slot();
  MutexLock lock(slot.mu);
  slot.owner = owner;
  slot.source = std::move(source);
}

void clear_signoff_service_source(const void* owner) {
  ServiceSourceSlot& slot = service_source_slot();
  MutexLock lock(slot.mu);
  if (slot.owner != owner) return;  // a newer registrant took the slot
  slot.owner = nullptr;
  slot.source = nullptr;
}

std::function<report::Json()> signoff_service_source() {
  ServiceSourceSlot& slot = service_source_slot();
  MutexLock lock(slot.mu);
  return slot.source;
}

SignoffReport run_signoff(const tech::Technology& technology,
                          const SignoffOptions& options) {
  SignoffReport report;
  report.technology = technology.name;

  DesignRuleEngine engine(technology, options.j0, options.engine);

  // 1. Design rules for every level.
  std::vector<int> all_levels;
  for (const auto& l : technology.layers) all_levels.push_back(l.level);
  report.design_rules =
      engine.design_rule_table(all_levels, options.gap_fills);

  // 2. Global-layer repeater checks (against the first gap-fill flow).
  std::vector<int> global_levels;
  const int top = technology.top_level();
  const int rows = technology.num_levels() >= 8 ? 4 : 2;
  for (int l = top - rows + 1; l <= top; ++l) global_levels.push_back(l);
  report.global_checks = engine.check_layers(
      global_levels, options.k_rel_electrical, options.gap_fills.front());
  report.all_global_layers_pass = true;
  for (const auto& c : report.global_checks)
    report.all_global_layers_pass = report.all_global_layers_pass && c.pass;

  // 3. ESD screen of the top layer.
  report.esd =
      engine.esd_screen(top, options.esd_hbm_volts, options.gap_fills.front());
  report.esd_safe = report.esd.state == esd::FailureState::kSafe;

  // 4. EM budget.
  report.j0_chip_budgeted =
      em::chip_level_j0(technology.metal.em, A_per_m2(options.j0),
                        options.em_sigma, options.em_population);
  return report;
}

std::string SignoffReport::to_text() const {
  std::ostringstream os;
  os << "=== Thermal/EM sign-off: " << technology << " ===\n\n";

  os << "[1] Self-consistent design rules (j_peak, MA/cm^2):\n";
  // Group: duty -> table of level rows x dielectric columns.
  std::vector<std::string> dielectrics;
  for (const auto& c : design_rules) {
    bool seen = false;
    for (const auto& d : dielectrics) seen = seen || d == c.dielectric;
    if (!seen) dielectrics.push_back(c.dielectric);
  }
  std::vector<double> duties;
  for (const auto& c : design_rules) {
    bool seen = false;
    for (double d : duties) seen = seen || d == c.duty_cycle;
    if (!seen) duties.push_back(c.duty_cycle);
  }
  for (double r : duties) {
    os << "  duty r = " << report::fmt(r, 2) << ":\n";
    std::vector<std::string> headers{"Metal"};
    for (const auto& d : dielectrics) headers.push_back(d);
    report::Table table(headers);
    std::vector<int> levels;
    for (const auto& c : design_rules) {
      bool seen = false;
      for (int l : levels) seen = seen || l == c.level;
      if (!seen) levels.push_back(c.level);
    }
    for (int level : levels) {
      std::vector<std::string> row{report::level_label(level)};
      for (const auto& d : dielectrics)
        for (const auto& c : design_rules)
          if (c.level == level && c.dielectric == d && c.duty_cycle == r)
            row.push_back(report::fmt(to_MA_per_cm2(c.sol.j_peak), 2));
      table.add_row(std::move(row));
    }
    os << table.to_string();
  }

  os << "\n[2] Global-layer delay-vs-thermal checks:\n";
  report::Table checks({"Metal", "l_opt [mm]", "s_opt", "r_eff", "j_peak",
                        "limit", "margin", "verdict"});
  for (const auto& c : global_checks)
    checks.add_row({report::level_label(c.level),
                    report::fmt(c.optimal.l_opt * 1e3, 2),
                    report::fmt(c.sim.size_used, 0),
                    report::fmt(c.sim.duty_effective, 3),
                    report::fmt(to_MA_per_cm2(c.sim.j_peak), 3),
                    report::fmt(to_MA_per_cm2(c.thermal_limit.j_peak), 3),
                    report::fmt(c.jpeak_margin, 2),
                    c.pass ? "PASS" : "FAIL"});
  os << checks.to_string();

  os << "\n[3] ESD screen (top layer): " << esd::to_string(esd.state)
     << ", T_peak = " << report::fmt(kelvin_to_celsius(esd.peak_temperature), 0)
     << " C, EM derating " << report::fmt(esd.em_lifetime_derating, 2) << "\n";

  os << "\n[4] Chip-level EM budget: usable j0 = "
     << report::fmt(to_MA_per_cm2(j0_chip_budgeted), 3) << " MA/cm^2\n";

  os << "\nOverall: global layers "
     << (all_global_layers_pass ? "PASS" : "FAIL") << ", ESD "
     << (esd_safe ? "SAFE" : "NEEDS DEDICATED SIZING") << "\n";
  return os.str();
}

std::string SignoffReport::to_json(int indent) const {
  using report::Json;
  Json root = Json::object();
  root.set("technology", Json::string(technology));

  Json rules = Json::array();
  for (const auto& c : design_rules) {
    Json cell = Json::object();
    cell.set("level", Json::integer(c.level))
        .set("dielectric", Json::string(c.dielectric))
        .set("duty_cycle", Json::number(c.duty_cycle))
        .set("jpeak_MA_cm2", Json::number(to_MA_per_cm2(c.sol.j_peak)))
        .set("jrms_MA_cm2", Json::number(to_MA_per_cm2(c.sol.j_rms)))
        .set("t_metal_C", Json::number(kelvin_to_celsius(c.sol.t_metal)));
    rules.push(std::move(cell));
  }
  root.set("design_rules", std::move(rules));

  Json checks = Json::array();
  for (const auto& c : global_checks) {
    Json entry = Json::object();
    entry.set("level", Json::integer(c.level))
        .set("l_opt_mm", Json::number(c.optimal.l_opt * 1e3))
        .set("s_opt", Json::number(c.optimal.s_opt))
        .set("r_eff", Json::number(c.sim.duty_effective))
        .set("jpeak_delay_MA_cm2", Json::number(to_MA_per_cm2(c.sim.j_peak)))
        .set("jpeak_limit_MA_cm2",
             Json::number(to_MA_per_cm2(c.thermal_limit.j_peak)))
        .set("margin", Json::number(c.jpeak_margin))
        .set("pass", Json::boolean(c.pass))
        .set("solver", report::diag_to_json(c.thermal_limit.diag));
    checks.push(std::move(entry));
  }
  root.set("global_checks", std::move(checks));

  Json esd_obj = Json::object();
  esd_obj.set("state", Json::string(esd::to_string(esd.state)))
      .set("t_peak_C", Json::number(kelvin_to_celsius(esd.peak_temperature)))
      .set("em_derating", Json::number(esd.em_lifetime_derating));
  root.set("esd", std::move(esd_obj));

  root.set("j0_chip_budgeted_MA_cm2",
           Json::number(to_MA_per_cm2(j0_chip_budgeted)));
  root.set("all_global_layers_pass", Json::boolean(all_global_layers_pass));
  root.set("esd_safe", Json::boolean(esd_safe));
  // Resilience state of the ambient run (deadline, cancellation, heartbeat)
  // rides along whenever the caller armed one.
  if (const RunContext* run = current_run_context())
    root.set("run", report::run_to_json(*run));
  // Service front-end state (admission and outcome counters) rides along
  // whenever a dsmt::service::Server is alive and publishing. Invoked
  // under the slot lock so a Server destroyed concurrently on another
  // thread yields "no section" instead of a use-after-free.
  Json service = Json::null();
  if (invoke_signoff_service_source(service))
    root.set("service", std::move(service));
  return root.dump(indent);
}

}  // namespace dsmt::core
