#include "service/degrade.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dsmt::service {

namespace {

/// Trial-temperature grid for the analytic rung: geometric in the rise
/// dT = T^ - T_ref from 0.25 K up to 1200 K (covers every regime the paper
/// tabulates; Table 4's worst cells sit near dT ~ 100 K). ~49 closed-form
/// evaluations, no iteration, no convergence check to inject faults into.
inline constexpr double kGridFirstRiseK = 0.25;
inline constexpr double kGridLastRiseK = 1200.0;
inline constexpr double kGridGrowth = 1.19;

/// The kOk payload both rungs share: temperatures [K], densities [A/m^2].
void fill_payload(Response& resp, const Request& request,
                  const LadderProblem& ladder, double t_metal_k,
                  double delta_t_k, double j_peak, double j_rms,
                  double j_avg) {
  resp.id = request.id;
  resp.kind = request.kind;
  resp.status = core::StatusCode::kOk;
  resp.conservative = true;  // both rungs carry the guarantee
  resp.t_metal_c = kelvin_to_celsius(t_metal_k);
  resp.delta_t_c = delta_t_k;
  resp.j_peak_MA_cm2 = to_MA_per_cm2(j_peak);
  resp.j_rms_MA_cm2 = to_MA_per_cm2(j_rms);
  resp.j_avg_MA_cm2 = to_MA_per_cm2(j_avg);
  if (request.kind == RequestKind::kDutyCyclePoint)
    resp.jpeak_em_only_MA_cm2 =
        to_MA_per_cm2(selfconsistent::jpeak_em_only(ladder.full).value());
}

}  // namespace

AnalyticBound analytic_quasi1d_bound(const selfconsistent::Problem& quasi1d) {
  const double r = quasi1d.duty_cycle;
  if (!std::isfinite(r) || r <= 0.0 || r > 1.0)
    throw std::invalid_argument(
        "service/degrade: duty cycle must be in (0, 1]");
  if (!std::isfinite(quasi1d.t_ref.value()) || quasi1d.t_ref.value() <= 0.0)
    throw std::invalid_argument(
        "service/degrade: t_ref must be positive and finite");

  const double sqrt_r = std::sqrt(r);
  AnalyticBound best;
  best.t_metal = quasi1d.t_ref;
  for (double rise = kGridFirstRiseK; rise <= kGridLastRiseK;
       rise *= kGridGrowth) {
    const units::Kelvin t_trial{quasi1d.t_ref.value() + rise};
    // Feasible j_rms at this trial temperature: the thermal branch keeps the
    // true temperature at or below t_trial, the EM branch applies Black's
    // rule at the pessimistic t_trial. min() of the two is safe on both.
    const double j_thermal =
        selfconsistent::jrms_thermal_at(quasi1d, t_trial).value();
    const double j_em =
        selfconsistent::javg_em_at(quasi1d, t_trial).value() / sqrt_r;
    const double j_feasible = std::min(j_thermal, j_em);
    if (std::isfinite(j_feasible) && j_feasible > best.j_rms.value()) {
      best.j_rms = units::CurrentDensity{j_feasible};
      best.t_metal = t_trial;
    }
  }
  best.j_peak = best.j_rms / sqrt_r;
  best.j_avg = sqrt_r * best.j_rms;
  return best;
}

Response full_response(const Request& request, const LadderProblem& ladder,
                       const selfconsistent::Solution& solution) {
  Response resp;
  resp.diag.absorb(solution.diag, "service/solve");
  fill_payload(resp, request, ladder, solution.t_metal.value(),
               solution.delta_t.value(), solution.j_peak.value(),
               solution.j_rms.value(), solution.j_avg.value());
  return resp;
}

Response analytic_response(const Request& request,
                           const LadderProblem& ladder) {
  const AnalyticBound bound = analytic_quasi1d_bound(ladder.quasi1d);
  const double t_metal_k = bound.t_metal.value();
  Response resp;
  resp.degraded = true;
  resp.degradation_level = DegradationLevel::kAnalyticBound;
  fill_payload(resp, request, ladder, t_metal_k,
               t_metal_k - celsius_to_kelvin(request.t_ref_c).value(),
               bound.j_peak.value(), bound.j_rms.value(), bound.j_avg.value());
  return resp;
}

}  // namespace dsmt::service
