// Batched structure-of-arrays solver for Eq. 13.
//
// Every heavy workload in this repo — design-rule tables, duty/j0 sweeps,
// Monte-Carlo variation, service request batches — solves thousands of
// near-identical instances of the paper's self-consistent equation. The
// scalar path (selfconsistent::solve) pays per call for a std::function
// residual, a fresh bracket search, and per-problem constant recomputation.
// This API solves N instances per call instead: problems are laid out as
// structure-of-arrays, per-problem constants are hoisted once (eq13.h), and
// all lanes advance in lock step so each "round" evaluates every pending
// lane's rho(T)/exp residual in one flat, branch-light loop. Per-lane
// convergence masks retire finished lanes from the round, and each lane
// carries its own StatusCode + SolverDiag so the failure taxonomy (and the
// exact SolveError a scalar solve would have thrown) survives batching.
//
// Contract: solve_batch is bit-for-bit faithful to the scalar path. For
// every lane, the numeric outputs, status, diag chain, and (for failed
// lanes) the reconstructed exception are identical to what
// selfconsistent::solve(problem) produces — the differential harness in
// tests/test_batch_differential.cpp enforces this lane by lane. The batch
// decomposes over parallel_for in static contiguous index blocks, so
// results are bitwise identical at every DSMT_THREADS (lanes never couple:
// the shared evaluation loop shares structure, not values).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "selfconsistent/solver.h"

namespace dsmt::selfconsistent {

/// N Eq.-13 instances, structure-of-arrays: one entry per lane in each
/// vector. Append lanes with push_back(Problem); all vectors stay the same
/// length. Plain doubles only — the solver's inner loop never touches a
/// Quantity wrapper or a string.
struct BatchProblem {
  std::vector<double> duty_cycle;           ///< r [1]
  std::vector<double> j0;                   ///< design-rule j_avg [A/m^2]
  std::vector<double> t_ref;                ///< reference temperature [K]
  std::vector<double> heating_coefficient;  ///< H [K*m^3/W]
  // rho(T) model per lane (Metal::resistivity)
  std::vector<double> rho_ref;              ///< rho at metal_t_ref [Ohm*m]
  std::vector<double> metal_t_ref;          ///< rho model reference [K]
  std::vector<double> tcr;                  ///< [1/K]
  // EM model per lane (Black's equation)
  std::vector<double> activation_energy_ev;  ///< Q [eV]
  std::vector<double> current_exponent;      ///< n [1]

  std::size_t size() const { return duty_cycle.size(); }
  bool empty() const { return duty_cycle.empty(); }
  void reserve(std::size_t n);
  void push_back(const Problem& p);
  /// Lane i reassembled as a scalar Problem (metal name is lost — only the
  /// physics fields round-trip). Mostly for tests and error reporting.
  Problem problem(std::size_t lane) const;
};

/// Per-lane outcomes, structure-of-arrays (move-only: the side records are
/// uniquely owned). Lanes whose scalar equivalent would have returned carry
/// kOk plus the Solution fields; lanes whose scalar equivalent would have
/// thrown carry the failure StatusCode, the exact exception message, and
/// the as-thrown diag chain — throw_lane() rebuilds the identical
/// exception on demand.
///
/// Diagnostics are stored compactly: the overwhelmingly common lane history
/// is a single clean "numeric/brent" success, fully determined by the
/// (status, iterations, residual) triple already in the arrays, so
/// lane_diag() synthesizes that chain on demand by replaying the exact
/// record() call the scalar path makes. Only lanes with a longer story —
/// recoveries (expanded-bracket retries, bisection fallbacks), failures,
/// invalid input — allocate a LaneRecord holding the full SolverDiag and
/// exception text. The happy path therefore writes no per-lane strings and
/// touches no heap, which is what keeps large batches cache- and
/// allocator-friendly.
struct BatchSolution {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::vector<double> t_metal;   ///< [K], 0 for failed lanes
  std::vector<double> delta_t;   ///< T_m - T_ref [K]
  std::vector<double> j_peak;    ///< [A/m^2]
  std::vector<double> j_rms;     ///< [A/m^2]
  std::vector<double> j_avg;     ///< [A/m^2]
  std::vector<int> iterations;
  std::vector<core::StatusCode> status;
  /// Final residual of the last root-find attempt (the diag chain's
  /// f-at-root), in the kernel's own norm [1].
  std::vector<double> residual;
  std::vector<char> invalid;  ///< 1: scalar path throws std::invalid_argument

  /// Full diagnostics for the rare lanes whose chain is more than the one
  /// canonical success event; null for every canonical lane.
  struct LaneRecord {
    core::SolverDiag diag;
    std::string error;  ///< SolveError prefix / what(); "" for ok lanes
  };
  std::vector<std::unique_ptr<LaneRecord>> records;

  std::size_t size() const { return status.size(); }
  bool ok(std::size_t lane) const {
    return status[lane] == core::StatusCode::kOk;
  }
  /// The lane's diag chain, exactly as the scalar solve would have left it:
  /// the side record when one exists, else the canonical single-event chain
  /// rebuilt through the same SolverDiag::record() call.
  core::SolverDiag lane_diag(std::size_t lane) const;
  /// Exception text for a failed lane; empty for lanes that solved.
  const std::string& lane_error(std::size_t lane) const;
  /// Lowest failed lane index, or npos when every lane solved. Matches the
  /// first-failure (lowest index) contract of parallel_for, so sweep
  /// drivers throw the same lane a scalar parallel_map would have.
  std::size_t first_failure() const;
  /// Scalar-equivalent Solution for an ok lane.
  Solution lane_solution(std::size_t lane) const;
  /// lane_solution variant that moves the lane's diag chain out instead of
  /// copying it — for drivers that drain every lane exactly once.
  Solution take_lane_solution(std::size_t lane);
  /// take_lane_solution without the temporary: writes the lane straight
  /// into `dst`, whose diag chain must still be empty (a freshly
  /// constructed Solution) — the table drain calls this once per cell.
  void drain_lane_into(std::size_t lane, Solution& dst);
  /// Rethrows exactly what selfconsistent::solve(problem(lane)) would have
  /// thrown: std::invalid_argument for invalid lanes, SolveError (same
  /// prefix, same diag chain) for solver failures.
  [[noreturn]] void throw_lane(std::size_t lane) const;
  /// throw_lane(first_failure()) if any lane failed; no-op otherwise.
  void throw_first_failure() const;
};

/// Solves all lanes. Never throws for per-lane failures (those are recorded
/// in status/diag/error); only infrastructure errors (bad_alloc, a run
/// interruption surfacing from parallel_for between blocks) propagate.
BatchSolution solve_batch(const BatchProblem& problems);

/// One-lane adapter with scalar throw semantics: returns the Solution or
/// throws exactly as selfconsistent::solve would. This is the sanctioned
/// entry point for single solves on the sweep/MC/service hot paths (lint
/// rule R12 fences raw solve/brent_robust calls out of those files).
Solution solve_one(const Problem& problem);

}  // namespace dsmt::selfconsistent
