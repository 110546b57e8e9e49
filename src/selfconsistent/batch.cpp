// Per-lane replication of the scalar solve chain over hoisted SoA terms.
//
// The batched solver is NOT a reformulated algorithm: each lane runs a
// straight-line transcription of selfconsistent::solve() ->
// numeric::brent_robust() -> {brent, expand_bracket, bisect} (solver.cpp /
// roots.cpp), specialized to the lane's precomputed eq13::Terms. The
// residual is a direct inline call (no std::function), the per-lane
// arithmetic, the run_check() poll counts, and the fault-injection hook
// calls (same kernel names, same per-lane iteration numbers, in the lane's
// scalar order) are identical to the scalar path, so every lane's outputs
// — values, status, diag chain, exception text — are bitwise identical to
// a scalar solve of the same Problem.
//
// One class of *raw* (hook-free, pure) evaluations is elided without
// observable effect; tests/test_batch_differential.cpp holds the proof:
// re-evaluations at an abscissa whose residual is already in hand — the
// bracket loop's post-loop re-check, brent's entry f(a)/f(b) on the
// expanded-bracket retry, and expand_bracket's / bisect's endpoint
// evaluations all re-apply a pure function to a bit-identical input, so
// the cached value IS the scalar value. Hook counts are unaffected: the
// scalar path performs these evaluations outside filter_residual().
//
// Consequences worth naming:
//  - One poisoned lane cannot perturb a neighbor: lanes share the hoisted
//    term layout and the code path, never values, and a failed lane is
//    recorded and left behind before the next lane starts.
//  - The batch decomposes over parallel_for in static contiguous blocks,
//    one per thread, so results are independent of
//    DSMT_THREADS; per-lane fault hooks and polls fire the same number of
//    times in any decomposition.
#include "selfconsistent/batch.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/run_context.h"
#include "numeric/fault_injection.h"
#include "parallel/parallel_for.h"
#include "selfconsistent/eq13.h"

namespace dsmt::selfconsistent {

namespace {

using core::StatusCode;

// solve()'s root options: {.x_tol = 1e-9, .f_tol = 0.0, .max_iterations =
// 200}; the bisection fallback quadruples the budget. f_tol is 0 (off), so
// the scalar f_tol clauses are compile-time false and omitted below.
constexpr double kXTol = 1e-9;
constexpr int kBrentMaxIter = 200;
constexpr int kBisectMaxIter = kBrentMaxIter * 4;

constexpr const char* kSolveKernel = "eq13/solve";

/// True when lane l differs from lane l-1 at most in duty cycle: every
/// input that feeds the duty-independent Terms fields matches bitwise
/// (make_terms is deterministic, so equal inputs give bit-equal Terms).
/// NaN fields (invalid lanes) compare unequal, which safely breaks a run.
bool duty_siblings(const BatchProblem& p, std::size_t l) {
  return p.j0[l] == p.j0[l - 1] && p.t_ref[l] == p.t_ref[l - 1] &&
         p.heating_coefficient[l] == p.heating_coefficient[l - 1] &&
         p.rho_ref[l] == p.rho_ref[l - 1] &&
         p.metal_t_ref[l] == p.metal_t_ref[l - 1] &&
         p.tcr[l] == p.tcr[l - 1] &&
         p.activation_energy_ev[l] == p.activation_energy_ev[l - 1] &&
         p.current_exponent[l] == p.current_exponent[l - 1];
}

/// Lane l's hoisted constants, via the same make_terms inline sequence the
/// scalar solver runs.
eq13::Terms lane_terms(const BatchProblem& p, std::size_t l) {
  return eq13::make_terms(p.duty_cycle[l], p.j0[l], p.t_ref[l],
                          p.heating_coefficient[l], p.rho_ref[l],
                          p.metal_t_ref[l], p.tcr[l],
                          p.activation_energy_ev[l], p.current_exponent[l]);
}

/// Memo for the duty-independent residual factors at the abscissas every
/// lane of a duty run visits: lo = t_ref * (1 + 1e-12) and the bracket
/// grid t_ref + 2^k. Reusing a value computed from bit-identical inputs
/// by the same pure function IS the value the lane would compute, so the
/// sharing is invisible to the differential harness; it only removes the
/// redundant rho(T)/exp evaluations the batch API exists to share. Fault
/// hooks never see bracket evaluations (filter_residual applies inside
/// brent/bisect only), so the memo is valid in both hook modes.
struct SharedEvals {
  static constexpr int kGridMax = 14;  // 2^13 = 8192 K > the 5000 K cap
  eq13::Parts lo;
  eq13::Parts grid[kGridMax];
  std::uint16_t have = 0;  ///< bit k: grid[k] holds t_ref + 2^k
  bool has_lo = false;
  void reset() {
    have = 0;
    has_lo = false;
  }
};

/// Mirror of numeric::RootResult (same defaults) for the attempt in flight.
struct LaneRoot {
  double root = 0.0;
  double f_at_root = 0.0;
  int iterations = 0;
  bool converged = false;
  StatusCode status = StatusCode::kMaxIterations;
  bool ok() const { return status == StatusCode::kOk; }
};

/// Solves one lane front to back, writing its BatchSolution slot.
///
/// kHooked selects whether the lane calls the ambient observation points —
/// numeric::fault hooks and core::run_check() polls. solve_batch() samples
/// fault::armed() and current_run_context() once per batch: when neither is
/// active, every hook is an identity function and every poll returns kOk by
/// contract (see fault_injection.h and run_context.h), so the kHooked=false
/// instantiation elides the out-of-TU calls without any observable effect —
/// same values, same iteration counts, same diag chains. Arm/disarm and
/// context installation are documented to happen outside parallel regions,
/// so the once-per-batch sample is within both contracts. When either is
/// active the kHooked=true instantiation fires the hooks at exactly the
/// scalar path's (kernel, iteration) coordinates.
template <bool kHooked>
class LaneSolver {
 public:
  LaneSolver(const eq13::Terms& q, double j0, BatchSolution& out,
             std::size_t l, SharedEvals& shared)
      : q_(q), j0_(j0), out_(out), l_(l), shared_(shared) {}

  void run() {
    // validate(p): same checks, same order, same messages.
    if (!std::isfinite(q_.duty) || q_.duty <= 0.0 || q_.duty > 1.0)
      return bad("Problem: duty cycle outside (0,1]");
    if (!std::isfinite(j0_) || j0_ <= 0.0)
      return bad("Problem: j0 <= 0 or non-finite");
    if (!std::isfinite(q_.t_ref) || q_.t_ref <= 0.0)
      return bad("Problem: t_ref <= 0 or non-finite");
    if (!std::isfinite(q_.h) || q_.h <= 0.0)
      return bad("Problem: heating coefficient <= 0 or non-finite");

    // solve(): bracket from [t_ref * (1 + 1e-12), t_ref + 1], doubling hi.
    double lo = q_.t_ref * (1.0 + 1e-12);
    double hi = q_.t_ref + 1.0;
    double fhi = 0.0;
    if (!bracket(hi, fhi)) return;

    // brent_robust(): first brent. f(a) is evaluated here (raw in the
    // scalar path too); f(b) reuses the bracket residual. lo is the same
    // abscissa for every lane of a duty run, so its factors are shared.
    if (!shared_.has_lo) {
      shared_.lo = eq13::residual_parts(q_, lo);
      shared_.has_lo = true;
    }
    double flo = eq13::residual_from(q_, shared_.lo);
    LaneRoot r = brent(lo, hi, flo, fhi);
    // The canonical history — one clean brent success — is fully determined
    // by (status, iterations, residual) and synthesized by lane_diag() on
    // demand, so the hot path materializes no SolverDiag at all.
    if (r.ok()) return finish_ok(r, nullptr);

    // Every longer story builds the full chain, in the scalar path's event
    // order, into a local diag that lands in the lane's side record.
    core::SolverDiag diag;
    diag.kernel = kSolveKernel;
    diag.record("numeric/brent", r.status, r.iterations, r.f_at_root);
    if (core::is_interruption(r.status)) return fail_root(diag, r);
    if (r.status != StatusCode::kNoBracket)
      return bisect_fallback(diag, lo, hi, flo, fhi);

    // expand_bracket(): entry evaluations of f(lo)/f(hi) are pure
    // re-evaluations of the cached endpoint residuals. Up to 60 half-width
    // moves of the endpoint with the smaller |f|.
    const LaneRoot first = r;
    for (int expand_i = 0;; ++expand_i) {
      if (std::signbit(flo) != std::signbit(fhi)) {
        // brent_robust(): bracket found — note the retry window, rerun
        // brent. Its entry f(a)/f(b) reuse the expand-loop residuals.
        std::ostringstream note;
        note << "retry on expanded bracket [" << lo << ", " << hi << "]";
        r = brent(lo, hi, flo, fhi);
        diag.record("numeric/brent", r.status, r.iterations, r.f_at_root,
                    note.str());
        if (r.ok()) return finish_ok(r, &diag);
        if (core::is_interruption(r.status)) return fail_root(diag, r);
        return bisect_fallback(diag, lo, hi, flo, fhi);
      }
      if (expand_i >= 60) {
        // nullopt: record the dead end, return the ORIGINAL brent result.
        diag.record("numeric/expand_bracket", StatusCode::kNoBracket, 0,
                    first.f_at_root, "no sign change after 60 doublings");
        return fail_root(diag, first);
      }
      const double w = hi - lo;
      if (std::abs(flo) < std::abs(fhi)) {
        lo -= 0.5 * w;
        flo = eq13::residual(q_, lo);
      } else {
        hi += 0.5 * w;
        fhi = eq13::residual(q_, hi);
      }
    }
  }

 private:
  /// core::run_check(), elided when the batch sampled no ambient context
  /// (kOk is then its contractual constant result).
  static StatusCode lane_check() {
    if constexpr (kHooked) return core::run_check();
    return StatusCode::kOk;
  }

  /// fault::clamp_iterations(), elided when no plan is armed (identity).
  static int lane_clamp(const char* kernel, int max_iterations) {
    if constexpr (kHooked)
      return numeric::fault::clamp_iterations(kernel, max_iterations);
    return max_iterations;
  }

  /// fault::filter_residual(), elided when no plan is armed (identity).
  static double lane_filter(const char* kernel, int iteration, double v) {
    if constexpr (kHooked)
      return numeric::fault::filter_residual(kernel, iteration, v);
    return v;
  }

  /// solve()'s bracket phase: the doubling loop, transcribed per lane —
  /// evaluate, poll, double, in scalar order. On success sets hi/fhi and
  /// returns true; on failure records the lane and returns false. The
  /// scalar loop re-evaluates residual(hi) after exiting (once for the
  /// failure check, once more for the failure diag); both are pure
  /// re-evaluations of the loop's last residual, so the cached f stands in.
  bool bracket(double& hi, double& fhi) {
    const double t_ref = q_.t_ref;
    for (int k = 0;; ++k) {
      const double f = grid_residual(hi, k);
      if (f < 0.0 && hi < t_ref + 5000.0) {
        // scalar: core::throw_if_run_interrupted("eq13/solve")
        const StatusCode rc = lane_check();
        if (rc != StatusCode::kOk) return fail_bracket_interrupt(rc);
        hi = t_ref + 2.0 * (hi - t_ref);
        continue;
      }
      if (f < 0.0) return fail_no_bracket(f);
      fhi = f;
      return true;
    }
  }

  /// Residual at the k-th bracket abscissa t_ref + 2^k, through the duty
  /// run's memo: hi's doubling sequence depends only on t_ref, so lanes of
  /// one run visit identical grid points.
  double grid_residual(double t, int k) {
    if (k < SharedEvals::kGridMax) {
      const std::uint16_t bit = static_cast<std::uint16_t>(1u << k);
      if (!(shared_.have & bit)) {
        shared_.grid[k] = eq13::residual_parts(q_, t);
        shared_.have = static_cast<std::uint16_t>(shared_.have | bit);
      }
      return eq13::residual_from(q_, shared_.grid[k]);
    }
    return eq13::residual(q_, t);
  }

  /// numeric::brent() on the lane residual, entry evaluations in hand.
  LaneRoot brent(double a, double b, double fa, double fb) {
    LaneRoot r;
    if (!std::isfinite(fa) || !std::isfinite(fb)) {
      r.root = 0.5 * (a + b);
      r.f_at_root = std::isfinite(fa) ? fb : fa;
      r.status = StatusCode::kNonFinite;
      return r;
    }
    if (fa == 0.0) return LaneRoot{a, 0.0, 0, true, StatusCode::kOk};
    if (fb == 0.0) return LaneRoot{b, 0.0, 0, true, StatusCode::kOk};
    if (std::signbit(fa) == std::signbit(fb)) {
      r.root = 0.5 * (a + b);
      r.f_at_root = eq13::residual(q_, r.root);
      r.status = StatusCode::kNoBracket;
      return r;
    }
    double c = a, fc = fa;
    double d = b - a, e = d;
    const int max_it = lane_clamp("numeric/brent", kBrentMaxIter);
    for (int iter = 0;;) {
      if (iter >= max_it) {
        r.root = b;
        r.f_at_root = fb;
        r.converged = false;
        r.status = StatusCode::kMaxIterations;
        return r;
      }
      if (const StatusCode rc = lane_check(); rc != StatusCode::kOk) {
        // res.iterations keeps its previous value: the scalar loop assigns
        // it after this check.
        r.root = b;
        r.f_at_root = fb;
        r.status = rc;
        return r;
      }
      r.iterations = iter + 1;
      if (std::abs(fc) < std::abs(fb)) {
        a = b;
        b = c;
        c = a;
        fa = fb;
        fb = fc;
        fc = fa;
      }
      const double eps = std::numeric_limits<double>::epsilon();
      const double tol1 = 2.0 * eps * std::abs(b) + 0.5 * kXTol;
      const double xm = 0.5 * (c - b);
      if (std::abs(xm) <= tol1 || fb == 0.0) {
        return LaneRoot{b, fb, r.iterations, true, StatusCode::kOk};
      }
      if (std::abs(e) >= tol1 && std::abs(fa) > std::abs(fb)) {
        // Inverse quadratic interpolation (secant if only two points).
        const double s = fb / fa;
        double pp, qq;
        if (a == c) {
          pp = 2.0 * xm * s;
          qq = 1.0 - s;
        } else {
          const double q2 = fa / fc;
          const double r2 = fb / fc;
          pp = s * (2.0 * xm * q2 * (q2 - r2) - (b - a) * (r2 - 1.0));
          qq = (q2 - 1.0) * (r2 - 1.0) * (s - 1.0);
        }
        if (pp > 0.0) qq = -qq;
        pp = std::abs(pp);
        const double min1 = 3.0 * xm * qq - std::abs(tol1 * qq);
        const double min2 = std::abs(e * qq);
        if (2.0 * pp < std::min(min1, min2)) {
          e = d;
          d = pp / qq;
        } else {
          d = xm;
          e = d;
        }
      } else {
        d = xm;
        e = d;
      }
      a = b;
      fa = fb;
      b += (std::abs(d) > tol1) ? d : (xm > 0.0 ? tol1 : -tol1);
      fb = lane_filter("numeric/brent", r.iterations, eq13::residual(q_, b));
      if (!std::isfinite(fb)) {
        r.root = b;
        r.f_at_root = fb;
        r.status = StatusCode::kNonFinite;
        return r;
      }
      if (std::signbit(fb) == std::signbit(fc)) {
        c = a;
        fc = fa;
        d = b - a;
        e = d;
      }
      ++iter;
    }
  }

  /// brent_robust()'s last link: numeric::bisect() with a 4x budget, entry
  /// evaluations in hand.
  void bisect_fallback(core::SolverDiag& diag, double lo, double hi,
                       double flo, double fhi) {
    LaneRoot r;
    for (;;) {  // single pass; break-less early returns via record below
      if (!std::isfinite(flo) || !std::isfinite(fhi)) {
        r.root = 0.5 * (lo + hi);
        r.f_at_root = std::isfinite(flo) ? fhi : flo;
        r.status = StatusCode::kNonFinite;
        break;
      }
      if (flo == 0.0) {
        r = LaneRoot{lo, 0.0, 0, true, StatusCode::kOk};
        break;
      }
      if (fhi == 0.0) {
        r = LaneRoot{hi, 0.0, 0, true, StatusCode::kOk};
        break;
      }
      if (std::signbit(flo) == std::signbit(fhi)) {
        r.root = 0.5 * (lo + hi);
        r.f_at_root = eq13::residual(q_, r.root);
        r.status = StatusCode::kNoBracket;
        break;
      }
      const int max_it = lane_clamp("numeric/bisect", kBisectMaxIter);
      int iter = 0;
      for (;;) {
        if (iter >= max_it) {
          r.root = 0.5 * (lo + hi);
          r.f_at_root = eq13::residual(q_, r.root);
          const bool interval_met = std::abs(hi - lo) <= kXTol;
          r.converged = interval_met;
          r.status =
              interval_met ? StatusCode::kOk : StatusCode::kMaxIterations;
          break;
        }
        if (const StatusCode rc = lane_check(); rc != StatusCode::kOk) {
          r.root = 0.5 * (lo + hi);
          r.f_at_root = flo;
          r.status = rc;
          break;
        }
        const double mid = 0.5 * (lo + hi);
        const double fm =
            lane_filter("numeric/bisect", iter + 1, eq13::residual(q_, mid));
        r.iterations = iter + 1;
        if (!std::isfinite(fm)) {
          r.root = mid;
          r.f_at_root = fm;
          r.status = StatusCode::kNonFinite;
          break;
        }
        if (fm == 0.0 || std::abs(hi - lo) <= kXTol) {
          r = LaneRoot{mid, fm, r.iterations, true, StatusCode::kOk};
          break;
        }
        if (std::signbit(fm) == std::signbit(flo)) {
          lo = mid;
          flo = fm;
        } else {
          hi = mid;
        }
        ++iter;
      }
      break;
    }
    diag.record("numeric/bisect", r.status, r.iterations, r.f_at_root,
                "bisection fallback, 4x budget");
    if (r.ok()) return finish_ok(r, &diag);
    return fail_root(diag, r);
  }

  /// solve()'s success epilogue. diag is null on the canonical path (the
  /// chain is synthesized on demand) and points at the full local chain
  /// after a recovery.
  void finish_ok(const LaneRoot& r, core::SolverDiag* diag) {
    const double root = r.root;
    out_.t_metal[l_] = root;
    out_.delta_t[l_] = root - q_.t_ref;
    out_.iterations[l_] = r.iterations;
    out_.residual[l_] = r.f_at_root;
    const double jrms2 = eq13::jrms2_thermal(q_, root);
    const double jrms = jrms2 > 0.0 ? std::sqrt(jrms2) : 0.0;
    out_.j_rms[l_] = jrms;
    const double jpeak = jrms / std::sqrt(q_.duty);
    out_.j_peak[l_] = jpeak;
    out_.j_avg[l_] = q_.duty * jpeak;
    if (diag != nullptr) {
      auto rec = std::make_unique<BatchSolution::LaneRecord>();
      rec->diag = std::move(*diag);
      out_.records[l_] = std::move(rec);
    }
    out_.status[l_] = StatusCode::kOk;
  }

  /// Records lane failure whose scalar equivalent threw.
  void fail(StatusCode status, std::string prefix, core::SolverDiag d,
            bool is_invalid) {
    auto rec = std::make_unique<BatchSolution::LaneRecord>();
    rec->diag = std::move(d);
    rec->error = std::move(prefix);
    out_.records[l_] = std::move(rec);
    out_.status[l_] = status;
    out_.invalid[l_] = is_invalid ? 1 : 0;
  }

  void bad(const char* msg) {
    fail(StatusCode::kInvalidInput, msg, core::SolverDiag{}, true);
  }

  /// solve()'s failure epilogue: add the context frame to the lane's chain,
  /// pick the scalar exception text.
  void fail_root(core::SolverDiag& diag, const LaneRoot& r) {
    diag.add_context(kSolveKernel);
    out_.residual[l_] = r.f_at_root;
    std::string prefix;
    if (core::is_interruption(r.status)) {
      prefix = std::string("selfconsistent::solve: run interrupted (") +
               core::status_name(r.status) + ")";
    } else {
      prefix = "selfconsistent::solve: root find failed";
    }
    fail(r.status, std::move(prefix), std::move(diag), false);
  }

  /// The bracket loop hit no sign change up to t_ref + 5000 K. The scalar
  /// path re-evaluates residual(hi) for the check and the diag; both are
  /// pure evaluations of the same point, so reuse f.
  bool fail_no_bracket(double f) {
    core::SolverDiag d;
    d.record(kSolveKernel, StatusCode::kNoBracket, 0, f,
             "no sign change up to t_ref + 5000 K");
    fail(StatusCode::kNoBracket,
         "selfconsistent::solve: failed to bracket root", std::move(d),
         false);
    return false;
  }

  /// throw_if_run_interrupted(kSolveKernel) observed in the bracket loop.
  bool fail_bracket_interrupt(StatusCode rc) {
    core::SolverDiag d;
    d.record(kSolveKernel, rc, 0, 0.0,
             rc == StatusCode::kCancelled ? "cooperative cancellation observed"
                                          : "monotonic deadline exceeded");
    fail(rc,
         std::string(kSolveKernel) + ": run interrupted (" +
             core::status_name(rc) + ")",
         std::move(d), false);
    return false;
  }

  const eq13::Terms& q_;
  const double j0_;
  BatchSolution& out_;
  const std::size_t l_;
  SharedEvals& shared_;
};

/// The parallel lane loop, instantiated with or without observation hooks.
template <bool kHooked>
void run_lanes(const BatchProblem& problems, BatchSolution& out) {
  const std::size_t n = problems.size();
  // Static contiguous blocks, one per thread. Lanes are
  // fully independent, so the block boundaries (and hence DSMT_THREADS)
  // cannot change any lane's bits; they only change which thread runs it.
  // A 1-lane batch (solve_one) is one block and never asks for the count.
  std::size_t workers = n == 1 ? 1 : parallel::thread_count();
  if (workers < 1) workers = 1;
  const std::size_t blocks = workers < n ? workers : n;
  const std::size_t base = n / blocks;
  const std::size_t rem = n % blocks;
  parallel::parallel_for(blocks, [&](std::size_t bidx) {
    const std::size_t begin = bidx * base + (bidx < rem ? bidx : rem);
    const std::size_t end = begin + base + (bidx < rem ? 1 : 0);
    // Per-lane Eq.-13 constants are hoisted on the fly: a lane that differs
    // from its predecessor only in duty cycle reuses the predecessor's
    // Terms with the duty patched (every other field derives from the equal
    // inputs by the same make_terms operations, so the copy is bitwise what
    // make_terms would produce, minus the divisions). Rebuilding at a block
    // boundary runs make_terms on the same inputs — same bits — so results
    // stay identical at every DSMT_THREADS. Same story for the duty-run
    // memo: a run straddling a boundary just re-evaluates its shared points
    // once per block, and the memo is a pure-value cache.
    SharedEvals shared;
    eq13::Terms q;
    for (std::size_t l = begin; l < end; ++l) {
      if (l == begin || !duty_siblings(problems, l)) {
        q = lane_terms(problems, l);
        shared.reset();
      } else {
        q.duty = problems.duty_cycle[l];
      }
      LaneSolver<kHooked> solver(q, problems.j0[l], out, l, shared);
      solver.run();
    }
  });
}

}  // namespace

void BatchProblem::reserve(std::size_t n) {
  duty_cycle.reserve(n);
  j0.reserve(n);
  t_ref.reserve(n);
  heating_coefficient.reserve(n);
  rho_ref.reserve(n);
  metal_t_ref.reserve(n);
  tcr.reserve(n);
  activation_energy_ev.reserve(n);
  current_exponent.reserve(n);
}

void BatchProblem::push_back(const Problem& p) {
  duty_cycle.push_back(p.duty_cycle);
  j0.push_back(p.j0.value());
  t_ref.push_back(p.t_ref.value());
  heating_coefficient.push_back(p.heating_coefficient.value());
  rho_ref.push_back(p.metal.rho_ref.value());
  metal_t_ref.push_back(p.metal.t_ref.value());
  tcr.push_back(p.metal.tcr);
  activation_energy_ev.push_back(p.metal.em.activation_energy_ev);
  current_exponent.push_back(p.metal.em.current_exponent);
}

Problem BatchProblem::problem(std::size_t lane) const {
  Problem p;
  p.duty_cycle = duty_cycle[lane];
  p.j0 = units::CurrentDensity{j0[lane]};
  p.t_ref = units::Kelvin{t_ref[lane]};
  p.heating_coefficient =
      units::HeatingCoefficient{heating_coefficient[lane]};
  p.metal.rho_ref = units::Resistivity{rho_ref[lane]};
  p.metal.t_ref = units::Kelvin{metal_t_ref[lane]};
  p.metal.tcr = tcr[lane];
  p.metal.em.activation_energy_ev = activation_energy_ev[lane];
  p.metal.em.current_exponent = current_exponent[lane];
  return p;
}

std::size_t BatchSolution::first_failure() const {
  for (std::size_t i = 0; i < status.size(); ++i)
    if (status[i] != core::StatusCode::kOk) return i;
  return npos;
}

namespace {
/// Rebuilds the canonical single-event chain: the exact end state of
/// `d.kernel = kSolveKernel; d.record("numeric/brent", kOk, it, res)` —
/// what the scalar solve path leaves behind on a clean first-try success —
/// written directly. Bypassing record() keeps the (per-drained-lane hot)
/// synthesis free of out-of-line string-parameter plumbing; the
/// differential harness pins the resulting fields against the scalar diag.
void synthesize_canonical_diag(core::SolverDiag& d, int iterations_used,
                               double residual_value) {
  d.kernel = kSolveKernel;
  d.status = StatusCode::kOk;
  d.iterations = iterations_used;
  d.residual = residual_value;
  // Push the event empty and patch it in place: moving a DiagEvent through
  // push_back's by-value parameter would copy both SSO string buffers twice.
  d.chain.push_back(core::DiagEvent{});
  core::DiagEvent& ev = d.chain.back();
  ev.kernel = "numeric/brent";
  ev.iterations = iterations_used;
  ev.residual = residual_value;
}
}  // namespace

core::SolverDiag BatchSolution::lane_diag(std::size_t lane) const {
  if (records[lane] != nullptr) return records[lane]->diag;
  core::SolverDiag d;
  synthesize_canonical_diag(d, iterations[lane], residual[lane]);
  return d;
}

const std::string& BatchSolution::lane_error(std::size_t lane) const {
  static const std::string kEmpty;
  return records[lane] != nullptr ? records[lane]->error : kEmpty;
}

Solution BatchSolution::lane_solution(std::size_t lane) const {
  Solution s;
  s.t_metal = units::Kelvin{t_metal[lane]};
  s.delta_t = units::CelsiusDelta{delta_t[lane]};
  s.j_peak = A_per_m2(j_peak[lane]);
  s.j_rms = A_per_m2(j_rms[lane]);
  s.j_avg = A_per_m2(j_avg[lane]);
  s.converged = status[lane] == core::StatusCode::kOk;
  s.iterations = iterations[lane];
  if (records[lane] != nullptr)
    s.diag = records[lane]->diag;
  else
    synthesize_canonical_diag(s.diag, iterations[lane], residual[lane]);
  return s;
}

Solution BatchSolution::take_lane_solution(std::size_t lane) {
  Solution s;
  drain_lane_into(lane, s);
  return s;
}

void BatchSolution::drain_lane_into(std::size_t lane, Solution& dst) {
  dst.t_metal = units::Kelvin{t_metal[lane]};
  dst.delta_t = units::CelsiusDelta{delta_t[lane]};
  dst.j_peak = A_per_m2(j_peak[lane]);
  dst.j_rms = A_per_m2(j_rms[lane]);
  dst.j_avg = A_per_m2(j_avg[lane]);
  dst.converged = status[lane] == core::StatusCode::kOk;
  dst.iterations = iterations[lane];
  if (records[lane] != nullptr)
    dst.diag = std::move(records[lane]->diag);
  else
    synthesize_canonical_diag(dst.diag, iterations[lane], residual[lane]);
}

void BatchSolution::throw_lane(std::size_t lane) const {
  if (invalid[lane]) throw std::invalid_argument(records[lane]->error);
  throw SolveError(records[lane]->error, records[lane]->diag);
}

void BatchSolution::throw_first_failure() const {
  const std::size_t bad = first_failure();
  if (bad != npos) throw_lane(bad);
}

BatchSolution solve_batch(const BatchProblem& problems) {
  const std::size_t n = problems.size();
  BatchSolution out;
  out.t_metal.assign(n, 0.0);
  out.delta_t.assign(n, 0.0);
  out.j_peak.assign(n, 0.0);
  out.j_rms.assign(n, 0.0);
  out.j_avg.assign(n, 0.0);
  out.iterations.assign(n, 0);
  out.status.assign(n, StatusCode::kOk);
  out.residual.assign(n, 0.0);
  out.invalid.assign(n, 0);
  out.records.clear();
  out.records.resize(n);
  if (n == 0) return out;

  // One sample decides the whole batch: with no fault plan armed and no
  // ambient RunContext, every observation hook is an identity by contract,
  // so the hook-free instantiation is bitwise-indistinguishable (and the
  // lane loop markedly faster). Arming and context installation are
  // documented to happen outside parallel regions, so the sample is stable
  // for the batch's duration. parallel_for snapshots the caller's ambient
  // context for its workers, so sampling on the calling thread is exact.
  if (numeric::fault::armed() || core::current_run_context() != nullptr)
    run_lanes<true>(problems, out);
  else
    run_lanes<false>(problems, out);
  return out;
}

Solution solve_one(const Problem& problem) {
  BatchProblem bp;
  bp.reserve(1);
  bp.push_back(problem);
  BatchSolution bs = solve_batch(bp);
  if (!bs.ok(0)) bs.throw_lane(0);
  return bs.take_lane_solution(0);
}

}  // namespace dsmt::selfconsistent
