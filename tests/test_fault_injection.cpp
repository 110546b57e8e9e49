// Fault-injection coverage for the failure-handling layer: with a fault
// armed, every kernel and engine entry point must either recover (with the
// recovery stage recorded in its core::SolverDiag chain) or throw
// dsmt::SolveError carrying the full chain — silent garbage is the one
// forbidden outcome. Disarmed hooks must be exact no-ops.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/engine.h"
#include "numeric/constants.h"
#include "numeric/fault_injection.h"
#include "numeric/roots.h"
#include "numeric/sparse.h"
#include "selfconsistent/solver.h"
#include "tech/ntrs.h"
#include "thermal/fd2d.h"
#include "thermal/impedance.h"

namespace dsmt {
namespace {

using numeric::fault::FaultKind;
using numeric::fault::FaultPlan;
using numeric::fault::ScopedFault;

double quadratic(double x) { return x * x - 2.0; }

/// 1-D Laplacian with Dirichlet ends: small SPD system for the CG tests.
numeric::CsrMatrix laplacian_1d(std::size_t n) {
  numeric::SparseBuilder b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return numeric::CsrMatrix(b);
}

selfconsistent::Problem make_problem() {
  selfconsistent::Problem p;
  p.metal = materials::make_copper();
  p.j0 = MA_per_cm2(0.6);
  p.duty_cycle = 0.1;
  const auto weff =
      thermal::effective_width(um(3.0), um(3.0), thermal::kPhiQuasi1D);
  p.heating_coefficient = selfconsistent::heating_coefficient(
      um(3.0), um(0.5),
      thermal::rth_per_length_uniform(um(3.0), W_per_mK(1.15), weff));
  return p;
}

core::EngineOptions fast_options() {
  core::EngineOptions o;
  o.sim.steps_per_period = 1500;
  o.sim.line_segments = 16;
  return o;
}

bool chain_has_note(const core::SolverDiag& diag, const std::string& piece) {
  for (const auto& ev : diag.chain)
    if (ev.note.find(piece) != std::string::npos) return true;
  return false;
}

TEST(FaultInjection, DisarmedHooksAreExactNoOps) {
  ASSERT_FALSE(numeric::fault::armed());
  EXPECT_EQ(numeric::fault::filter_residual("numeric/cg", 3, 0.125), 0.125);
  EXPECT_EQ(numeric::fault::clamp_iterations("numeric/cg", 777), 777);
  EXPECT_EQ(numeric::fault::injection_count(), 0);
}

TEST(FaultInjection, HooksMatchKernelBySubstringAndIteration) {
  ScopedFault fault({FaultKind::kPerturbResidual, "numeric/cg", 3, 10.0, ""});
  ASSERT_TRUE(numeric::fault::armed());
  // Wrong kernel: untouched.
  EXPECT_EQ(numeric::fault::filter_residual("numeric/brent", 5, 1.0), 1.0);
  // Right kernel, before at_iteration: untouched.
  EXPECT_EQ(numeric::fault::filter_residual("numeric/cg", 2, 1.0), 1.0);
  // Right kernel, at/after at_iteration: scaled, and the firing is counted.
  EXPECT_EQ(numeric::fault::filter_residual("numeric/cg", 3, 1.0), 10.0);
  EXPECT_EQ(numeric::fault::filter_residual("numeric/cg", 4, 2.0), 20.0);
  EXPECT_EQ(numeric::fault::injection_count(), 2);
}

TEST(FaultInjection, NanAndExhaustionHooks) {
  {
    ScopedFault fault({FaultKind::kNanResidual, "", 1, 0.0, ""});
    EXPECT_TRUE(std::isnan(numeric::fault::filter_residual("any", 1, 0.5)));
  }
  {
    ScopedFault fault(
        {FaultKind::kExhaustIterations, "numeric/brent", 2, 0.0, ""});
    EXPECT_EQ(numeric::fault::clamp_iterations("numeric/brent", 200), 2);
    EXPECT_EQ(numeric::fault::clamp_iterations("numeric/bisect", 200), 200);
  }
  EXPECT_FALSE(numeric::fault::armed());
}

TEST(FaultInjection, BrentRobustFallsBackToBisectionOnExhaustion) {
  // Starve Brent (only Brent) of iterations: the robust wrapper must save
  // the solve through its bisection stage and record both attempts.
  ScopedFault fault(
      {FaultKind::kExhaustIterations, "numeric/brent", 1, 0.0, ""});
  core::SolverDiag diag;
  const auto r = numeric::brent_robust(quadratic, 0.0, 2.0, {}, diag);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.root, std::sqrt(2.0), 1e-9);
  EXPECT_TRUE(diag.recovered);
  ASSERT_GE(diag.chain.size(), 2u);
  EXPECT_EQ(diag.chain.front().status, core::StatusCode::kMaxIterations);
  EXPECT_TRUE(chain_has_note(diag, "bisection fallback"));
  EXPECT_GT(numeric::fault::injection_count(), 0);
}

TEST(FaultInjection, BrentRobustFallsBackToBisectionOnNanResidual) {
  ScopedFault fault({FaultKind::kNanResidual, "numeric/brent", 1, 0.0, ""});
  core::SolverDiag diag;
  const auto r = numeric::brent_robust(quadratic, 0.0, 2.0, {}, diag);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.root, std::sqrt(2.0), 1e-9);
  EXPECT_TRUE(diag.recovered);
  EXPECT_EQ(diag.chain.front().status, core::StatusCode::kNonFinite);
}

TEST(FaultInjection, BrentRobustReportsWhenEveryStageFails) {
  // Starve Brent and bisection alike: no stage can succeed, and the chain
  // must show every attempt that was made.
  ScopedFault fault({FaultKind::kExhaustIterations, "numeric/b", 1, 0.0, ""});
  core::SolverDiag diag;
  const auto r = numeric::brent_robust(quadratic, 0.0, 2.0, {}, diag);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, core::StatusCode::kMaxIterations);
  EXPECT_FALSE(diag.ok());
  EXPECT_FALSE(diag.recovered);
  EXPECT_GE(diag.chain.size(), 2u);
}

TEST(FaultInjection, CgRobustRecordsWarmRetryOnExhaustion) {
  const auto a = laplacian_1d(64);
  const std::vector<double> b(64, 1.0);
  std::vector<double> x(64, 0.0);
  ScopedFault fault({FaultKind::kExhaustIterations, "numeric/cg", 2, 0.0, ""});
  core::SolverDiag diag;
  const auto r = numeric::conjugate_gradient_robust(a, b, x, {}, diag);
  // The retry is clamped by the same fault, so the solve stays exhausted —
  // but both attempts must be on the record.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, core::StatusCode::kMaxIterations);
  ASSERT_EQ(diag.chain.size(), 2u);
  EXPECT_TRUE(chain_has_note(diag, "warm-started Jacobi retry"));
}

TEST(FaultInjection, CgRobustRecordsColdRestartOnNanResidual) {
  const auto a = laplacian_1d(64);
  const std::vector<double> b(64, 1.0);
  std::vector<double> x(64, 0.0);
  ScopedFault fault({FaultKind::kNanResidual, "numeric/cg", 1, 0.0, ""});
  core::SolverDiag diag;
  const auto r = numeric::conjugate_gradient_robust(a, b, x, {}, diag);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, core::StatusCode::kNonFinite);
  ASSERT_EQ(diag.chain.size(), 2u);
  EXPECT_TRUE(chain_has_note(diag, "cold restart"));
}

TEST(FaultInjection, Fd2dSolutionCarriesDiagUnderCgFault) {
  // Library-level field solve: a failed linear solve must come back with
  // converged = false AND a populated diagnostic chain, never bare garbage.
  thermal::CrossSection2D cs(um(10), um(4), 1.15);
  cs.add_wire({um(4.5), um(5.5), um(2), um(2.5)}, 400.0);
  thermal::MeshOptions mesh;
  mesh.h_min = 0.05e-6;
  mesh.h_max = 0.5e-6;
  ScopedFault fault({FaultKind::kExhaustIterations, "numeric/cg", 3, 0.0, ""});
  const auto sol = cs.solve({1.0}, mesh);
  EXPECT_FALSE(sol.converged);
  EXPECT_FALSE(sol.diag.ok());
  EXPECT_GE(sol.diag.chain.size(), 2u);
}

TEST(FaultInjection, SelfconsistentSolveRecoversUnderBrentFault) {
  ScopedFault fault(
      {FaultKind::kExhaustIterations, "numeric/brent", 1, 0.0, ""});
  const auto sol = selfconsistent::solve(make_problem());
  EXPECT_TRUE(sol.converged);
  EXPECT_GT(sol.j_peak, 0.0);
  EXPECT_TRUE(sol.diag.recovered);
  EXPECT_GE(sol.diag.chain.size(), 2u);
  EXPECT_GT(numeric::fault::injection_count(), 0);
}

TEST(FaultInjection, SelfconsistentSolveThrowsWhenRecoveryExhausted) {
  ScopedFault fault({FaultKind::kExhaustIterations, "numeric/b", 1, 0.0, ""});
  try {
    (void)selfconsistent::solve(make_problem());
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_FALSE(e.diag().ok());
    EXPECT_GE(e.diag().chain.size(), 2u);
    EXPECT_NE(std::string(e.what()).find("selfconsistent"), std::string::npos);
  }
}

TEST(FaultInjection, EngineThermalLimitRecoversUnderBrentFault) {
  core::DesignRuleEngine eng(tech::make_ntrs_250nm_cu(), MA_per_cm2(0.6),
                             fast_options());
  ScopedFault fault(
      {FaultKind::kExhaustIterations, "numeric/brent", 1, 0.0, ""});
  const auto sol = eng.thermal_limit(6, materials::make_oxide(), 0.1);
  EXPECT_TRUE(sol.converged);
  EXPECT_GT(sol.j_peak, 0.0);
  EXPECT_TRUE(sol.diag.recovered);
}

TEST(FaultInjection, EngineThermalLimitThrowsWithContextWhenExhausted) {
  core::DesignRuleEngine eng(tech::make_ntrs_250nm_cu(), MA_per_cm2(0.6),
                             fast_options());
  ScopedFault fault({FaultKind::kExhaustIterations, "numeric/b", 1, 0.0, ""});
  try {
    (void)eng.thermal_limit(6, materials::make_oxide(), 0.1);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_FALSE(e.diag().ok());
    EXPECT_NE(std::string(e.what()).find("core/engine.thermal_limit"),
              std::string::npos);
  }
}

TEST(FaultInjection, EngineDesignRuleTableThrowsNotSilent) {
  core::DesignRuleEngine eng(tech::make_ntrs_250nm_cu(), MA_per_cm2(0.6),
                             fast_options());
  ScopedFault fault({FaultKind::kExhaustIterations, "numeric/b", 1, 0.0, ""});
  EXPECT_THROW((void)eng.design_rule_table({6}, {materials::make_oxide()}),
               SolveError);
}

TEST(FaultInjection, EngineCheckLayerThrowsWithContextWhenExhausted) {
  core::DesignRuleEngine eng(tech::make_ntrs_250nm_cu(), MA_per_cm2(0.6),
                             fast_options());
  ScopedFault fault({FaultKind::kExhaustIterations, "numeric/b", 1, 0.0, ""});
  try {
    (void)eng.check_layer(6, 4.0, materials::make_oxide());
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_FALSE(e.diag().ok());
    EXPECT_NE(std::string(e.what()).find("core/engine.check_layer"),
              std::string::npos);
  }
}

TEST(FaultInjection, EsdScreenStaysValidOrThrowsUnderGlobalFault) {
  // The ESD screen's kernels are closed-form + adaptive ODE, so a global
  // fault may simply never fire — but whatever comes back must be a fully
  // valid assessment, never a poisoned one.
  core::DesignRuleEngine eng(tech::make_ntrs_250nm_cu(), MA_per_cm2(0.6),
                             fast_options());
  ScopedFault fault({FaultKind::kExhaustIterations, "", 1, 0.0, ""});
  try {
    const auto a = eng.esd_screen(6, 2000.0, materials::make_oxide());
    EXPECT_TRUE(std::isfinite(a.peak_temperature));
    EXPECT_GT(a.peak_temperature, 0.0);
  } catch (const SolveError& e) {
    EXPECT_FALSE(e.diag().ok());
    EXPECT_FALSE(e.diag().chain.empty());
  }
}

TEST(FaultInjection, ElectrothermalFixedPointThrowsWhenStarved) {
  // Starve only the outer fixed point: the inner solves stay healthy, and
  // the engine must refuse to hand back the unconverged iterate.
  core::DesignRuleEngine eng(tech::make_ntrs_250nm_cu(), MA_per_cm2(0.6),
                             fast_options());
  ScopedFault fault(
      {FaultKind::kExhaustIterations, "core/engine.electrothermal", 1, 0.0,
       ""});
  try {
    (void)eng.check_layer_electrothermal(6, 4.0, materials::make_oxide());
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), core::StatusCode::kMaxIterations);
    EXPECT_NE(
        std::string(e.what()).find("core/engine.check_layer_electrothermal"),
        std::string::npos);
  }
}

TEST(FaultInjection, ScopedFaultDisarmsOnScopeExit) {
  {
    ScopedFault fault({FaultKind::kNanResidual, "", 1, 0.0, ""});
    ASSERT_TRUE(numeric::fault::armed());
  }
  ASSERT_FALSE(numeric::fault::armed());
  // Everything behaves again after disarm.
  core::SolverDiag diag;
  const auto r = numeric::brent_robust(quadratic, 0.0, 2.0, {}, diag);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(diag.recovered);
  EXPECT_EQ(diag.chain.size(), 1u);
}

}  // namespace
}  // namespace dsmt
