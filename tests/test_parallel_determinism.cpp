// Determinism contract of the parallel layer: every fan-out adopted on top
// of src/parallel/ must produce bit-identical results for any thread count,
// and a solver failure inside a worker must surface on the caller with its
// SolverDiag chain intact — parallelization changes wall-clock, nothing else.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/status.h"
#include "core/variation.h"
#include "numeric/constants.h"
#include "numeric/fault_injection.h"
#include "parallel/parallel_for.h"
#include "report/json.h"
#include "selfconsistent/batch.h"
#include "selfconsistent/sweep.h"
#include "tech/ntrs.h"
#include "thermal/fd2d.h"
#include "thermal/impedance.h"

namespace dsmt {
namespace {

using numeric::fault::FaultKind;
using numeric::fault::ScopedFault;

// Exact binary equality — EXPECT_DOUBLE_EQ tolerates 4 ulps, which would
// hide exactly the class of drift this suite exists to forbid.
void expect_bits_equal(double a, double b, const std::string& what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
      << what << ": " << a << " != " << b;
}

selfconsistent::Problem fig2_problem() {
  selfconsistent::Problem p;
  p.metal = materials::make_copper();
  p.metal.em.activation_energy_ev = 0.7;
  p.j0 = MA_per_cm2(0.6);
  const auto weff =
      thermal::effective_width(um(3.0), um(3.0), thermal::kPhiQuasi1D);
  const auto rth =
      thermal::rth_per_length_uniform(um(3.0), W_per_mK(1.15), weff);
  p.heating_coefficient =
      selfconsistent::heating_coefficient(um(3.0), um(0.5), rth);
  return p;
}

selfconsistent::TableSpec table_spec() {
  selfconsistent::TableSpec spec;
  spec.technology = tech::make_ntrs_100nm_cu();
  spec.gap_fills = materials::paper_dielectrics();
  spec.levels = {5, 6, 7, 8};
  spec.duty_cycles = {0.1, 1.0};
  spec.j0 = MA_per_cm2(0.6);
  return spec;
}

/// Runs `compute` at each thread count and compares every result against
/// the 1-thread reference bitwise via `compare(reference, candidate)`.
template <typename Compute, typename Compare>
void for_thread_counts(Compute&& compute, Compare&& compare) {
  parallel::set_thread_count(1);
  const auto reference = compute();
  for (std::size_t n : {std::size_t{2}, std::size_t{8}}) {
    parallel::set_thread_count(n);
    compare(reference, compute(), "threads=" + std::to_string(n));
  }
  parallel::set_thread_count(0);  // restore the DSMT_THREADS/hardware default
}

TEST(ParallelDeterminism, SweepDutyCycleBitIdentical) {
  const auto duties = selfconsistent::log_spaced(1e-4, 1.0, 33);
  for_thread_counts(
      [&] { return selfconsistent::sweep_duty_cycle(fig2_problem(), duties); },
      [](const auto& ref, const auto& got, const std::string& tag) {
        ASSERT_EQ(ref.size(), got.size()) << tag;
        for (std::size_t k = 0; k < ref.size(); ++k) {
          expect_bits_equal(ref[k].sc.t_metal, got[k].sc.t_metal,
                            tag + " t_metal[" + std::to_string(k) + "]");
          expect_bits_equal(ref[k].sc.j_peak, got[k].sc.j_peak,
                            tag + " j_peak[" + std::to_string(k) + "]");
          expect_bits_equal(ref[k].jpeak_thermal_only,
                            got[k].jpeak_thermal_only,
                            tag + " jth[" + std::to_string(k) + "]");
        }
      });
}

TEST(ParallelDeterminism, DesignRuleTableBitIdentical) {
  for_thread_counts(
      [&] { return selfconsistent::generate_design_rule_table(table_spec()); },
      [](const auto& ref, const auto& got, const std::string& tag) {
        ASSERT_EQ(ref.size(), got.size()) << tag;
        for (std::size_t c = 0; c < ref.size(); ++c) {
          // Identical cell ordering is part of the contract: downstream
          // table printers index by position.
          EXPECT_EQ(ref[c].level, got[c].level) << tag;
          EXPECT_EQ(ref[c].dielectric, got[c].dielectric) << tag;
          expect_bits_equal(ref[c].sol.j_peak, got[c].sol.j_peak,
                            tag + " cell " + std::to_string(c));
          expect_bits_equal(ref[c].sol.t_metal, got[c].sol.t_metal,
                            tag + " cell " + std::to_string(c));
        }
      });
}

TEST(ParallelDeterminism, SweepJ0BitIdentical) {
  const std::vector<double> j0s = {MA_per_cm2(0.6), MA_per_cm2(1.2),
                                   MA_per_cm2(1.8), MA_per_cm2(2.4)};
  const auto duties = selfconsistent::log_spaced(1e-3, 1.0, 9);
  for_thread_counts(
      [&] { return selfconsistent::sweep_j0(fig2_problem(), j0s, duties); },
      [](const auto& ref, const auto& got, const std::string& tag) {
        ASSERT_EQ(ref.size(), got.size()) << tag;
        for (std::size_t i = 0; i < ref.size(); ++i)
          for (std::size_t k = 0; k < ref[i].size(); ++k)
            expect_bits_equal(ref[i][k].sc.j_peak, got[i][k].sc.j_peak,
                              tag + " [" + std::to_string(i) + "][" +
                                  std::to_string(k) + "]");
      });
}

TEST(ParallelDeterminism, MonteCarloBitIdentical) {
  core::VariationSpec spec;
  for_thread_counts(
      [&] {
        return core::monte_carlo_jpeak(tech::make_ntrs_100nm_cu(), 8,
                                       materials::make_hsq(), 2.45, 0.1,
                                       MA_per_cm2(1.8), spec, 64);
      },
      [](const auto& ref, const auto& got, const std::string& tag) {
        ASSERT_EQ(ref.samples.size(), got.samples.size()) << tag;
        for (std::size_t s = 0; s < ref.samples.size(); ++s)
          expect_bits_equal(ref.samples[s], got.samples[s],
                            tag + " sample " + std::to_string(s));
        // The ordered reduction makes the summary bit-stable too, not just
        // statistically equal.
        expect_bits_equal(ref.mean, got.mean, tag + " mean");
        expect_bits_equal(ref.stddev, got.stddev, tag + " stddev");
        expect_bits_equal(ref.p01, got.p01, tag + " p01");
        expect_bits_equal(ref.p99, got.p99, tag + " p99");
      });
}

TEST(ParallelDeterminism, CrossSectionCouplingBitIdentical) {
  auto build = [] {
    thermal::CrossSection2D xs(12e-6, 8e-6, 1.4);
    xs.add_band(2e-6, 2.5e-6, 0.4);
    for (int w = 0; w < 5; ++w)
      xs.add_wire({1e-6 + 2e-6 * w, 1.8e-6 + 2e-6 * w, 2.1e-6, 2.4e-6}, 395.0);
    return xs;
  };
  for_thread_counts(
      [&] { return build().coupling_matrix({}); },
      [](const auto& ref, const auto& got, const std::string& tag) {
        for (std::size_t i = 0; i < 5; ++i)
          for (std::size_t j = 0; j < 5; ++j)
            expect_bits_equal(ref(i, j), got(i, j),
                              tag + " theta(" + std::to_string(i) + "," +
                                  std::to_string(j) + ")");
      });
}

TEST(ParallelDeterminism, EngineCheckLayersBitIdentical) {
  const core::DesignRuleEngine engine(tech::make_ntrs_100nm_cu(),
                                      MA_per_cm2(1.8));
  for_thread_counts(
      [&] { return engine.check_layers({5, 6, 7, 8}, 2.0,
                                       materials::make_hsq()); },
      [](const auto& ref, const auto& got, const std::string& tag) {
        ASSERT_EQ(ref.size(), got.size()) << tag;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_EQ(ref[i].pass, got[i].pass) << tag;
          expect_bits_equal(ref[i].jpeak_margin, got[i].jpeak_margin,
                            tag + " margin " + std::to_string(i));
        }
      });
}

// A fault armed inside one sweep must surface from the worker thread as a
// SolveError whose diag chain still tells the whole story — the parallel
// layer carries the exception object across the join, it does not flatten
// it into a generic error.
TEST(ParallelDeterminism, FaultInSweepCellSurfacesAcrossThreads) {
  parallel::set_thread_count(8);
  // "numeric/b" poisons Brent AND its bisection fallback — the recovery
  // chain exhausts, so the failure must escape the worker as a SolveError.
  ScopedFault fault({FaultKind::kNanResidual, "numeric/b", 1, 0.0, ""});
  try {
    (void)selfconsistent::generate_design_rule_table(table_spec());
    FAIL() << "expected SolveError from the poisoned sweep";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), core::StatusCode::kNonFinite);
    ASSERT_FALSE(e.diag().chain.empty());
    // The chain records the failed Brent attempt (and its bisection
    // fallback), proving the diagnostics crossed the thread boundary.
    bool saw_brent = false;
    for (const auto& ev : e.diag().chain)
      saw_brent |= ev.kernel.find("numeric/") != std::string::npos;
    EXPECT_TRUE(saw_brent) << e.diag().to_string();
  }
  parallel::set_thread_count(0);
}

// The propagated failure is the one a serial loop would have hit first
// (lowest flattened index), independent of thread scheduling.
TEST(ParallelDeterminism, FirstFailureIsDeterministic) {
  std::string serial_what, parallel_what;
  {
    parallel::set_thread_count(1);
    ScopedFault fault({FaultKind::kExhaustIterations, "numeric/b", 1, 0.0, ""});
    try {
      (void)selfconsistent::generate_design_rule_table(table_spec());
    } catch (const SolveError& e) {
      serial_what = e.what();
    }
  }
  for (int repeat = 0; repeat < 3; ++repeat) {
    parallel::set_thread_count(8);
    ScopedFault fault({FaultKind::kExhaustIterations, "numeric/b", 1, 0.0, ""});
    try {
      (void)selfconsistent::generate_design_rule_table(table_spec());
      FAIL() << "expected SolveError";
    } catch (const SolveError& e) {
      parallel_what = e.what();
    }
    EXPECT_EQ(serial_what, parallel_what) << "repeat " << repeat;
  }
  parallel::set_thread_count(0);
  EXPECT_FALSE(serial_what.empty());
}

TEST(ParallelDeterminism, ThreadCountEnvAndOverride) {
  parallel::set_thread_count(3);
  EXPECT_EQ(parallel::thread_count(), 3u);
  ::setenv("DSMT_THREADS", "5", 1);
  // Explicit override wins over the environment...
  EXPECT_EQ(parallel::thread_count(), 3u);
  // ...and resetting to 0 falls back to DSMT_THREADS.
  parallel::set_thread_count(0);
  EXPECT_EQ(parallel::thread_count(), 5u);
  ::unsetenv("DSMT_THREADS");
  EXPECT_GE(parallel::thread_count(), 1u);
}

TEST(ParallelDeterminism, ParallelForCoversEveryIndexOnce) {
  parallel::set_thread_count(8);
  std::vector<int> hits(1000, 0);
  parallel::parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], 1) << "index " << i;
  parallel::set_thread_count(0);
}

TEST(ParallelDeterminism, NestedParallelForRunsInline) {
  parallel::set_thread_count(4);
  std::vector<int> sums(8, 0);
  parallel::parallel_for(sums.size(), [&](std::size_t i) {
    // Inner region must not deadlock on the shared pool.
    parallel::parallel_for(16, [&](std::size_t) { sums[i] += 1; });
  });
  for (int s : sums) EXPECT_EQ(s, 16);
  parallel::set_thread_count(0);
}

TEST(ParallelDeterminism, ThreadCountResolvedOnceUntilReset) {
  const char* env = std::getenv("DSMT_THREADS");
  const std::string saved = env != nullptr ? env : "";
  parallel::set_thread_count(0);
  const std::size_t resolved = parallel::thread_count();
  const std::size_t other = resolved == 7 ? 6 : 7;
  ::setenv("DSMT_THREADS", std::to_string(other).c_str(), 1);
  // The default is read once: a later environment change is not seen...
  EXPECT_EQ(parallel::thread_count(), resolved);
  // ...until set_thread_count(0) re-reads it.
  parallel::set_thread_count(0);
  EXPECT_EQ(parallel::thread_count(), other);
  if (env != nullptr)
    ::setenv("DSMT_THREADS", saved.c_str(), 1);
  else
    ::unsetenv("DSMT_THREADS");
  parallel::set_thread_count(0);
}

TEST(ParallelDeterminism, OneItemAndNestedRegionsStayOffThePool) {
  parallel::set_thread_count(8);
  const selfconsistent::Problem problem = fig2_problem();
  std::uint64_t before = parallel::tasks_drained();
  EXPECT_TRUE(selfconsistent::solve_one(problem).converged);
  int ran = 0;
  parallel::parallel_for(1, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(parallel::tasks_drained(), before);

  // An 8-item region at 8 threads submits exactly 7 tasks; the nested
  // regions inside every chunk, the caller's included, submit none. The
  // region returns when its chunks are done, so a task can still be queued:
  // wait for all 7 to drain, then check no eighth follows.
  std::vector<int> sums(8, 0);
  before = parallel::tasks_drained();
  parallel::parallel_for(sums.size(), [&](std::size_t i) {
    parallel::parallel_for(64, [&](std::size_t) { sums[i] += 1; });
  });
  for (int ms = 0; ms < 10000 && parallel::tasks_drained() - before < 7; ++ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(parallel::tasks_drained() - before, 7u);
  for (int s : sums) EXPECT_EQ(s, 64);
  parallel::set_thread_count(0);
}

// A chunk held up on one thread leaves the rest of the range to the other
// threads: at 4 threads a 32-item region is 32 one-item chunks, so item 0
// can wait for the other 31 to finish. With one static block per thread,
// items 1..7 would sit behind item 0 in its block and the wait would time
// out.
TEST(ParallelDeterminism, StalledChunkDoesNotHoldTheRest) {
  parallel::set_thread_count(4);
  constexpr std::size_t kItems = 32;
  std::atomic<std::size_t> done{0};
  bool others_finished = false;
  parallel::parallel_for(kItems, [&](std::size_t i) {
    if (i == 0) {
      for (int ms = 0; ms < 10000 && done.load() < kItems - 1; ++ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      others_finished = done.load() == kItems - 1;
    }
    done.fetch_add(1);
  });
  EXPECT_TRUE(others_finished);
  EXPECT_EQ(done.load(), kItems);
  parallel::set_thread_count(0);
}

// The join waits for the chunks, not for the pool tasks: with every worker
// busy elsewhere, the caller runs all chunks itself and returns while its
// own tasks are still queued. Those tasks later find nothing left to do.
TEST(ParallelDeterminism, BusyPoolDoesNotHoldTheJoin) {
  parallel::set_thread_count(4);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<bool> release{false};
  std::atomic<bool> timed_out{false};
  for (int w = 0; w < 4; ++w)
    parallel::pool_submit([&] {
      started.fetch_add(1);
      for (int ms = 0; ms < 5000 && !release.load(); ++ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (!release.load()) timed_out.store(true);
      finished.fetch_add(1);
    });
  for (int ms = 0; ms < 10000 && started.load() < 4; ++ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(started.load(), 4);

  std::vector<int> out(100, 0);
  parallel::parallel_for(out.size(),
                         [&](std::size_t i) { out[i] = static_cast<int>(i); });
  // Returning before the blockers time out is the property under test.
  release.store(true);
  for (int ms = 0; ms < 10000 && finished.load() < 4; ++ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(timed_out.load());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i));
  parallel::set_thread_count(0);
}

#if defined(__linux__)
// Workers start on their own CPUs but keep the process's whole affinity
// set, so the kernel (and the caller's taskset) still decide where they run.
TEST(ParallelDeterminism, WorkersKeepTheProcessAffinity) {
  cpu_set_t process;
  CPU_ZERO(&process);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof process, &process),
            0);
  parallel::set_thread_count(4);
  std::vector<int> same(64, 0);
  parallel::parallel_for(same.size(), [&](std::size_t i) {
    cpu_set_t mine;
    CPU_ZERO(&mine);
    same[i] = pthread_getaffinity_np(pthread_self(), sizeof mine, &mine) ==
                  0 &&
              CPU_EQUAL(&mine, &process);
  });
  for (std::size_t i = 0; i < same.size(); ++i)
    EXPECT_EQ(same[i], 1) << "item " << i;
  parallel::set_thread_count(0);
}
#endif

/// `n` distinct items of every JSON kind, some of them nested containers.
report::Json mixed_array(std::size_t n) {
  using report::Json;
  Json a = Json::array();
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<long long>(i);
    switch (i % 4) {
      case 0:
        a.push(Json::integer(k));
        break;
      case 1:
        a.push(Json::string("s\"" + std::to_string(i) + "\n"));
        break;
      case 2: {
        Json inner = Json::array();
        inner.push(Json::boolean(i % 8 == 2)).push(Json::null());
        Json o = Json::object();
        o.set("x", Json::number(0.1 * static_cast<double>(i)))
            .set("list", std::move(inner))
            .set("empty", Json::object());
        a.push(std::move(o));
        break;
      }
      default:
        a.push(Json::array());
    }
  }
  return a;
}

/// Offset of the first byte where `a` and `b` differ, or npos when equal.
/// Comparing through it keeps a failure report small: gtest's own diff of
/// two multi-megabyte strings is quadratic in memory.
std::size_t first_difference(const std::string& a, const std::string& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] != b[i]) return i;
  return a.size() == b.size() ? std::string::npos : n;
}

TEST(ParallelDeterminism, JsonDumpBytesMatchAcrossThreadCounts) {
  using report::Json;
  std::vector<Json> docs;
  for (const std::size_t n : {0u, 1u, 255u, 256u, 257u})
    docs.push_back(mixed_array(n));
  Json grid = Json::array();
  for (int r = 0; r < 256; ++r) {
    Json row = Json::array();
    for (int c = 0; c < 256; ++c) {
      Json cell = Json::object();
      cell.set("r", Json::integer(r)).set("c", Json::integer(c));
      row.push(std::move(cell));
    }
    grid.push(std::move(row));
  }
  docs.push_back(std::move(grid));
  for (const int indent : {-1, 0, 2}) {
    for (std::size_t d = 0; d < docs.size(); ++d) {
      parallel::set_thread_count(1);
      const std::string serial = docs[d].dump(indent);
      parallel::set_thread_count(8);
      const std::string fanned = docs[d].dump(indent);
      const std::size_t at = first_difference(fanned, serial);
      EXPECT_EQ(at, std::string::npos)
          << "document " << d << " at indent " << indent << ": 8 threads "
          << fanned.substr(at, 40) << " vs 1 thread " << serial.substr(at, 40);
    }
  }

  // The framing of a fanned-out array, written out by hand.
  Json items = Json::array();
  std::string expected = "[";
  for (int i = 0; i < 257; ++i) {
    Json item = Json::object();
    item.set("i", Json::integer(i));
    items.push(std::move(item));
    if (i > 0) expected += ',';
    expected += "\n  {\n    \"i\": " + std::to_string(i) + "\n  }";
  }
  expected += "\n]";
  for (const std::size_t threads : {1u, 8u}) {
    parallel::set_thread_count(threads);
    const std::string dumped = items.dump(2);
    const std::size_t at = first_difference(dumped, expected);
    EXPECT_EQ(at, std::string::npos)
        << threads << " threads: " << dumped.substr(at, 40) << " vs "
        << expected.substr(at, 40);
  }
  parallel::set_thread_count(0);
}

}  // namespace
}  // namespace dsmt
