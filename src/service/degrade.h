// The service's two answers to a request: the full quasi-2D solve, and the
// conservative analytic rung below it.
//
//   rung 0  full_response — the self-consistent Eq. 13 solution of the
//           quasi-2D (phi = 2.45) problem. A solve-cache hit replays this
//           same function over the cached numbers, so a hit's reply is the
//           cold reply byte for byte.
//
//   rung 2  analytic_quasi1d_bound — iteration-free lower bound from the
//           quasi-1D W_eff = W_m + 0.88 b problem. For ANY trial T^ >= T_ref,
//           j_rms = min(jrms_thermal_at(T^), javg_em_at(T^)/sqrt(r)) is
//           feasible (the thermal branch pins T <= T^, the EM branch is
//           evaluated at the pessimistic T^); we take the best T^ over a
//           fixed geometric grid. The quasi-1D phi = 0.88 underestimates
//           W_eff, overestimates R'_th and hence heating, pushing the bound
//           further below the quasi-2D answer.
//
// A request whose one solve attempt fails gets rung 2. Both rungs depend
// on the request alone, so a reply never depends on other requests.
//
// Full derivations: docs/THEORY.md section 15.
#pragma once

#include "selfconsistent/solver.h"
#include "service/request.h"

namespace dsmt::service {

/// Rung-2 result: a feasible, conservative operating point.
struct AnalyticBound {
  units::Kelvin t_metal{};         ///< trial temperature of the best rung
  units::CurrentDensity j_rms{};   ///< guaranteed-feasible RMS density
  units::CurrentDensity j_peak{};  ///< j_rms / sqrt(r)
  units::CurrentDensity j_avg{};   ///< sqrt(r) j_rms
};

/// Iteration-free conservative bound from the quasi-1D problem (see the
/// header comment). Deterministic: fixed temperature grid, no root find, no
/// fault-injection hook in its path. Throws std::invalid_argument on duty
/// cycle outside (0, 1] or non-finite problem data.
AnalyticBound analytic_quasi1d_bound(const selfconsistent::Problem& quasi1d);

/// The rung-0 reply to `request`: status kOk at DegradationLevel::kFull,
/// the payload of `solution` (the solve of `ladder.full`), and its diag
/// chain absorbed under "service/solve".
Response full_response(const Request& request, const LadderProblem& ladder,
                       const selfconsistent::Solution& solution);

/// The rung-2 reply to `request`: status kOk, degraded and conservative at
/// DegradationLevel::kAnalyticBound, with an empty diag chain for the
/// caller to fill. Throws like analytic_quasi1d_bound.
Response analytic_response(const Request& request,
                           const LadderProblem& ladder);

}  // namespace dsmt::service
