// Google-benchmark micro-benchmarks of the numeric kernels that dominate the
// reproduction harnesses: scalar root solves, dense LU, sparse CG — plus
// serial-vs-N-thread timings of the parallel sweep drivers and the reply
// encoder (%.10g number text, one full reply).
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/run_context.h"
#include "core/variation.h"
#include "numeric/dense.h"
#include "numeric/roots.h"
#include "numeric/sparse.h"
#include "parallel/parallel_for.h"
#include "report/json.h"
#include "selfconsistent/batch.h"
#include "selfconsistent/solver.h"
#include "selfconsistent/sweep.h"
#include "service/request.h"
#include "service/server.h"
#include "tech/ntrs.h"

namespace {

void BM_BrentTranscendental(benchmark::State& state) {
  for (auto _ : state) {
    auto r = dsmt::numeric::brent(
        [](double x) { return std::exp(1.0 / x) - x; }, 0.5, 4.0);
    benchmark::DoNotOptimize(r.root);
  }
}
BENCHMARK(BM_BrentTranscendental);

void BM_DenseLuSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  dsmt::numeric::Matrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = dist(rng);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    a(i, i) += static_cast<double>(n);  // diagonally dominant
  }
  for (auto _ : state) {
    auto x = dsmt::numeric::solve_dense(a, b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_DenseLuSolve)->Arg(32)->Arg(128);

void BM_SparseCgLaplace(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));  // grid side
  const std::size_t nn = n * n;
  dsmt::numeric::SparseBuilder builder(nn);
  auto idx = [n](std::size_t i, std::size_t j) { return i * n + j; };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      builder.add(idx(i, j), idx(i, j), 4.0);
      if (i > 0) builder.add(idx(i, j), idx(i - 1, j), -1.0);
      if (i + 1 < n) builder.add(idx(i, j), idx(i + 1, j), -1.0);
      if (j > 0) builder.add(idx(i, j), idx(i, j - 1), -1.0);
      if (j + 1 < n) builder.add(idx(i, j), idx(i, j + 1), -1.0);
    }
  }
  dsmt::numeric::CsrMatrix a(builder);
  std::vector<double> b(nn, 1.0), x(nn, 0.0);
  for (auto _ : state) {
    std::fill(x.begin(), x.end(), 0.0);
    auto res = dsmt::numeric::conjugate_gradient(a, b, x, {1e-8, 10000});
    benchmark::DoNotOptimize(res.iterations);
  }
}
BENCHMARK(BM_SparseCgLaplace)->Arg(32)->Arg(64);

// Thread-scaling benchmarks: Arg is the thread count handed to the pool.
// The 1-thread row is the serial baseline (parallel_for falls through to a
// plain loop); higher rows measure the same bit-identical computation under
// the static-block fan-out, so row ratios read directly as speedup.

// Duty-cycle grid for the table-sweep pair: range(1) is the point count of
// a log-spaced r sweep, the axis the paper's design-rule tables are plotted
// over. Denser duty grids are where the batch solver's structural sharing
// (one prototype per (gap fill, level), bracket evaluations memoized across
// a duty run) has more lanes to amortize over.
std::vector<double> bench_duty_grid(std::int64_t points) {
  if (points == 4) return {0.01, 0.1, 0.5, 1.0};
  return dsmt::selfconsistent::log_spaced(0.005, 1.0, static_cast<int>(points));
}

void BM_DesignRuleTableSweep(benchmark::State& state) {
  dsmt::parallel::set_thread_count(static_cast<std::size_t>(state.range(0)));
  dsmt::selfconsistent::TableSpec spec;
  spec.technology = dsmt::tech::make_ntrs_100nm_cu();
  spec.gap_fills = dsmt::materials::paper_dielectrics();
  spec.levels = {1, 2, 3, 4, 5, 6, 7, 8};
  spec.duty_cycles = bench_duty_grid(state.range(1));
  spec.j0 = dsmt::MA_per_cm2(0.6);
  for (auto _ : state) {
    auto table = dsmt::selfconsistent::generate_design_rule_table(spec);
    benchmark::DoNotOptimize(table.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              spec.levels.size() * spec.gap_fills.size() *
                              spec.duty_cycles.size()));
  dsmt::parallel::set_thread_count(0);
}
BENCHMARK(BM_DesignRuleTableSweep)
    ->Args({1, 4})->Args({1, 16})->Args({1, 32})->Args({1, 64})
    ->Args({2, 32})->Args({8, 32})
    ->Unit(benchmark::kMillisecond);

// Scalar baseline for the table sweep: a faithful replica of the pre-batch
// table path — parallel_map<TableCell>, each cell keyed and solved with its
// own make_level_problem + a transcription of the historical solve(): the
// doubling bracket loop plus brent_robust over a residual that recomputes
// the Eq.-13 terms on every evaluation (the selfconsistent::residual free
// function keeps exactly that form). The one-time terms hoist (eq13.h)
// landed together with the batch core, so the like-for-like baseline for
// the batched row is the path it actually replaced. Outputs are bitwise
// identical to solve() — asserted below before the timed loop — only the
// per-evaluation bookkeeping differs.
dsmt::selfconsistent::Solution solve_prebatch(
    const dsmt::selfconsistent::Problem& p) {
  namespace sc = dsmt::selfconsistent;
  sc::Solution sol;
  const double lo = p.t_ref.value() * (1.0 + 1e-12);
  double hi = p.t_ref.value() + 1.0;
  while (sc::residual(p, dsmt::units::Kelvin{hi}) < 0.0 &&
         hi < p.t_ref.value() + 5000.0) {
    dsmt::core::throw_if_run_interrupted("eq13/solve");
    hi = p.t_ref.value() + 2.0 * (hi - p.t_ref.value());
  }
  if (sc::residual(p, dsmt::units::Kelvin{hi}) < 0.0) {
    dsmt::core::SolverDiag diag;
    diag.record("eq13/solve", dsmt::core::StatusCode::kNoBracket, 0,
                sc::residual(p, dsmt::units::Kelvin{hi}),
                "no sign change up to t_ref + 5000 K");
    throw dsmt::SolveError("selfconsistent::solve: failed to bracket root",
                           diag);
  }
  sol.diag.kernel = "eq13/solve";
  const auto root = dsmt::numeric::brent_robust(
      [&](double t) { return sc::residual(p, dsmt::units::Kelvin{t}); }, lo,
      hi, {.x_tol = 1e-9, .f_tol = 0.0, .max_iterations = 200}, sol.diag);
  sol.t_metal = dsmt::units::Kelvin{root.root};
  sol.delta_t = sol.t_metal - p.t_ref;
  sol.converged = root.ok();
  sol.iterations = root.iterations;
  sol.j_rms = sc::jrms_thermal_at(p, sol.t_metal);
  sol.j_peak = sol.j_rms / std::sqrt(p.duty_cycle);
  sol.j_avg = p.duty_cycle * sol.j_peak;
  return sol;
}

void BM_DesignRuleTableSweepScalar(benchmark::State& state) {
  dsmt::parallel::set_thread_count(static_cast<std::size_t>(state.range(0)));
  dsmt::selfconsistent::TableSpec spec;
  spec.technology = dsmt::tech::make_ntrs_100nm_cu();
  spec.gap_fills = dsmt::materials::paper_dielectrics();
  spec.levels = {1, 2, 3, 4, 5, 6, 7, 8};
  spec.duty_cycles = bench_duty_grid(state.range(1));
  spec.j0 = dsmt::MA_per_cm2(0.6);
  const std::size_t n_gf = spec.gap_fills.size();
  const std::size_t n_lv = spec.levels.size();
  const std::size_t n_cells = spec.duty_cycles.size() * n_gf * n_lv;
  // Faithfulness check: the replica must reproduce solve() bit for bit.
  for (std::size_t idx = 0; idx < n_cells; idx += 17) {
    const auto p = dsmt::selfconsistent::make_level_problem(
        spec.technology, spec.levels[idx % n_lv],
        spec.gap_fills[(idx / n_lv) % n_gf], spec.phi,
        spec.duty_cycles[idx / (n_gf * n_lv)], spec.j0);
    const auto a = solve_prebatch(p);
    const auto b = dsmt::selfconsistent::solve(p);
    if (a.t_metal.value() != b.t_metal.value() ||
        a.j_peak.value() != b.j_peak.value() ||
        a.iterations != b.iterations) {
      state.SkipWithError("solve_prebatch drifted from solve()");
      return;
    }
  }
  for (auto _ : state) {
    auto cells =
        dsmt::parallel::parallel_map<dsmt::selfconsistent::TableCell>(
            n_cells, [&](std::size_t idx) {
              dsmt::selfconsistent::TableCell cell;
              cell.level = spec.levels[idx % n_lv];
              cell.dielectric = spec.gap_fills[(idx / n_lv) % n_gf].name;
              cell.duty_cycle = spec.duty_cycles[idx / (n_gf * n_lv)];
              cell.sol = solve_prebatch(
                  dsmt::selfconsistent::make_level_problem(
                      spec.technology, cell.level,
                      spec.gap_fills[(idx / n_lv) % n_gf], spec.phi,
                      cell.duty_cycle, spec.j0));
              return cell;
            });
    benchmark::DoNotOptimize(cells.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_cells));
  dsmt::parallel::set_thread_count(0);
}
BENCHMARK(BM_DesignRuleTableSweepScalar)
    ->Args({1, 4})->Args({1, 16})->Args({1, 32})->Args({1, 64})
    ->Args({2, 32})->Args({8, 32})
    ->Unit(benchmark::kMillisecond);

// Solver-core pair: the same 512 Eq.-13 lanes solved one-by-one through
// solve() and once through solve_batch(), single-threaded, isolating the
// batch core (hoisted per-lane terms, straight-line lane solves, elided
// duplicate evaluations) from driver and threading effects. Note solve()
// itself already benefits from the eq13.h terms hoist, so this pair
// understates the win over the pre-batch scalar path — the table-sweep
// pair above carries that comparison.
std::vector<dsmt::selfconsistent::Problem> eq13_lane_problems() {
  std::vector<dsmt::selfconsistent::Problem> out;
  const auto technology = dsmt::tech::make_ntrs_100nm_cu();
  const auto gap_fills = dsmt::materials::paper_dielectrics();
  out.reserve(512);
  for (std::size_t i = 0; out.size() < 512; ++i) {
    const double duty = 0.01 + 0.99 * static_cast<double>(i % 16) / 15.0;
    const double j0 = 0.3 + 0.15 * static_cast<double>(i % 11);
    out.push_back(dsmt::selfconsistent::make_level_problem(
        technology, 1 + static_cast<int>(i % 8), gap_fills[i % 3], 2.45,
        duty, dsmt::MA_per_cm2(j0)));
  }
  return out;
}

void BM_Eq13SolveScalar(benchmark::State& state) {
  dsmt::parallel::set_thread_count(1);
  const auto problems = eq13_lane_problems();
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& p : problems) acc += dsmt::selfconsistent::solve(p).j_peak;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(problems.size()));
  dsmt::parallel::set_thread_count(0);
}
BENCHMARK(BM_Eq13SolveScalar)->Unit(benchmark::kMillisecond);

void BM_Eq13SolveBatch(benchmark::State& state) {
  dsmt::parallel::set_thread_count(1);
  const auto problems = eq13_lane_problems();
  dsmt::selfconsistent::BatchProblem bp;
  bp.reserve(problems.size());
  for (const auto& p : problems) bp.push_back(p);
  for (auto _ : state) {
    const auto bs = dsmt::selfconsistent::solve_batch(bp);
    benchmark::DoNotOptimize(bs.j_peak.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(problems.size()));
  dsmt::parallel::set_thread_count(0);
}
BENCHMARK(BM_Eq13SolveBatch)->Unit(benchmark::kMillisecond);

void BM_MonteCarloJpeak(benchmark::State& state) {
  dsmt::parallel::set_thread_count(static_cast<std::size_t>(state.range(0)));
  const auto technology = dsmt::tech::make_ntrs_100nm_cu();
  const auto hsq = dsmt::materials::make_hsq();
  const dsmt::core::VariationSpec spec;
  for (auto _ : state) {
    auto mc = dsmt::core::monte_carlo_jpeak(technology, 8, hsq, 2.45, 0.1,
                                            dsmt::MA_per_cm2(1.8), spec, 256);
    benchmark::DoNotOptimize(mc.samples.data());
  }
  state.SetItemsProcessed(state.iterations() * 256);
  dsmt::parallel::set_thread_count(0);
}
BENCHMARK(BM_MonteCarloJpeak)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Reply encoding: the number text of a reply (temperatures, current
// densities, residuals: a fixed seeded set in the ranges replies carry) and
// one full ok reply as the --batch path and the socket front end write it.
void BM_JsonNumber(benchmark::State& state) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    switch (i % 3) {
      case 0: values[i] = 25.0 + 375.0 * unit(rng); break;           // degC
      case 1: values[i] = std::pow(10.0, -2.0 + 4.0 * unit(rng)); break;
      default: values[i] = std::pow(10.0, -16.0 + 8.0 * unit(rng));  // resid
    }
  }
  for (auto _ : state) {
    dsmt::report::JsonWriter out;
    out.begin_array();
    for (const double v : values) out.number(v);
    out.end_array();
    benchmark::DoNotOptimize(out.take().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_JsonNumber);

void BM_WriteResponse(benchmark::State& state) {
  dsmt::service::Request request;
  request.id = "r12345";
  request.kind = dsmt::service::RequestKind::kDutyCyclePoint;
  dsmt::service::ServerConfig config;
  config.publish_signoff = false;
  dsmt::service::Server server(config);
  const dsmt::service::Response reply = server.submit_batch({request}).at(0);
  if (!reply.ok()) state.SkipWithError("the reply is not ok");
  for (auto _ : state)
    benchmark::DoNotOptimize(dsmt::service::dump_response(reply).size());
}
BENCHMARK(BM_WriteResponse);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): `--json <path>` is CI shorthand
// for google-benchmark's own out-file flags, so the workflow (and BENCH_N.json
// snapshots) doesn't have to spell the two --benchmark_out* flags in step
// YAML. Everything else passes through to benchmark::Initialize untouched.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      out_flag = std::string("--benchmark_out=") + argv[++i];
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
    } else {
      args.push_back(argv[i]);
    }
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
