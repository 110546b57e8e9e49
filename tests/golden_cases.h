// Shared definition of the golden-regression scenarios: the exact paper
// artifacts (Tables 2-4 design-rule grids, Fig. 2/3 sweep series, the
// Monte-Carlo variation summary) flattened to ordered (key, value) rows.
//
// Both tests/test_golden_regression.cpp (compare against tests/golden/*.csv)
// and tests/golden_gen_main.cpp (regenerate the snapshots, driven by
// tools/update_golden.py) include this header, so the checked values and the
// written values can never drift apart.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/variation.h"
#include "numeric/constants.h"
#include "selfconsistent/batch.h"
#include "selfconsistent/sweep.h"
#include "tech/ntrs.h"
#include "thermal/impedance.h"

namespace dsmt::golden {

using Rows = std::vector<std::pair<std::string, double>>;

inline std::string fmt_idx(std::size_t i) {
  std::string s = std::to_string(i);
  if (i < 10) s.insert(0, 1, '0');
  return s;
}

/// The Fig. 2/3 base problem (figure captions: Cu, AlCu-era Q = 0.7 eV,
/// t_ox = 3 um, t_m = 0.5 um, W_m = 3 um, quasi-1D spreading).
inline selfconsistent::Problem fig_base_problem() {
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

/// One design-rule table (the bench/design_rule_common.h row selection):
/// signal and power duty cycles, the three paper dielectrics, and the
/// paper's top-of-stack level rows for each technology node.
inline Rows design_rule_rows(const std::vector<tech::Technology>& techs,
                             double j0_ma_per_cm2) {
  Rows rows;
  for (double r : {0.1, 1.0}) {
    for (const auto& technology : techs) {
      selfconsistent::TableSpec spec;
      spec.technology = technology;
      spec.gap_fills = materials::paper_dielectrics();
      const int top = technology.top_level();
      const int n_rows = technology.num_levels() >= 8 ? 4 : 2;
      for (int l = top - n_rows + 1; l <= top; ++l) spec.levels.push_back(l);
      spec.duty_cycles = {r};
      spec.j0 = MA_per_cm2(j0_ma_per_cm2);
      for (const auto& cell : selfconsistent::generate_design_rule_table(spec)) {
        const std::string key = technology.name + "/r=" +
                                (r < 0.5 ? "0.1" : "1.0") + "/M" +
                                std::to_string(cell.level) + "/" +
                                cell.dielectric;
        rows.emplace_back(key + "/jpeak_MA_cm2", to_MA_per_cm2(cell.sol.j_peak));
        rows.emplace_back(key + "/tm_C", kelvin_to_celsius(cell.sol.t_metal));
      }
    }
  }
  return rows;
}

inline Rows table2_rows() {
  return design_rule_rows(
      {tech::make_ntrs_250nm_cu(), tech::make_ntrs_100nm_cu()}, 0.6);
}

inline Rows table3_rows() {
  return design_rule_rows(
      {tech::make_ntrs_250nm_cu(), tech::make_ntrs_100nm_cu()}, 1.8);
}

inline Rows table4_rows() {
  return design_rule_rows(
      {tech::make_ntrs_250nm_alcu(), tech::make_ntrs_100nm_alcu()}, 0.6);
}

/// Fig. 2 series: the bench's 17-point log-spaced duty sweep.
inline Rows fig2_rows() {
  Rows rows;
  const auto duties = selfconsistent::log_spaced(1e-4, 1.0, 17);
  const auto points =
      selfconsistent::sweep_duty_cycle(fig_base_problem(), duties);
  for (std::size_t k = 0; k < points.size(); ++k) {
    const std::string key = "fig2/k=" + fmt_idx(k);
    rows.emplace_back(key + "/duty", points[k].duty_cycle);
    rows.emplace_back(key + "/tm_C", kelvin_to_celsius(points[k].sc.t_metal));
    rows.emplace_back(key + "/jpeak_sc", to_MA_per_cm2(points[k].sc.j_peak));
    rows.emplace_back(key + "/jpeak_em_only",
                      to_MA_per_cm2(points[k].jpeak_em_only));
    rows.emplace_back(key + "/jpeak_thermal_only",
                      to_MA_per_cm2(points[k].jpeak_thermal_only));
  }
  return rows;
}

/// Fig. 3 family: j_o in {0.6, 1.2, 1.8, 2.4} MA/cm^2 over 9 duty points.
inline Rows fig3_rows() {
  Rows rows;
  const std::vector<double> j0s = {MA_per_cm2(0.6), MA_per_cm2(1.2),
                                   MA_per_cm2(1.8), MA_per_cm2(2.4)};
  const auto duties = selfconsistent::log_spaced(1e-4, 1.0, 9);
  const auto family = selfconsistent::sweep_j0(fig_base_problem(), j0s, duties);
  for (std::size_t i = 0; i < family.size(); ++i) {
    for (std::size_t k = 0; k < family[i].size(); ++k) {
      const std::string key =
          "fig3/j0=" + fmt_idx(i) + "/k=" + fmt_idx(k);
      rows.emplace_back(key + "/tm_C",
                        kelvin_to_celsius(family[i][k].sc.t_metal));
      rows.emplace_back(key + "/jpeak_sc",
                        to_MA_per_cm2(family[i][k].sc.j_peak));
    }
  }
  return rows;
}

/// Monte-Carlo variation distribution summary (counter-seeded sampling):
/// 100 nm Cu node, top level, HSQ gap fill, signal duty, paper j0.
inline Rows variation_rows() {
  core::VariationSpec spec;
  const auto res =
      core::monte_carlo_jpeak(tech::make_ntrs_100nm_cu(), 8,
                              materials::make_hsq(), 2.45, 0.1,
                              MA_per_cm2(1.8), spec, 200);
  Rows rows;
  rows.emplace_back("variation/nominal", res.nominal);
  rows.emplace_back("variation/mean", res.mean);
  rows.emplace_back("variation/stddev", res.stddev);
  rows.emplace_back("variation/p01", res.p01);
  rows.emplace_back("variation/p50", res.p50);
  rows.emplace_back("variation/p99", res.p99);
  // Pin a few individual samples too: they prove the per-sample seeding
  // (not just the aggregate) is stable.
  for (std::size_t s : {std::size_t{0}, std::size_t{99}, std::size_t{199}})
    rows.emplace_back("variation/sample" + fmt_idx(s), res.samples[s]);
  return rows;
}

/// Batched design-rule table, pinned against the solve_batch public API
/// directly (the Tables 2-4 rows above cover the batched sweep drivers):
/// a (duty x dielectric x level) grid for the 100 nm Cu node assembled as
/// one BatchProblem and solved in a single call. Failed lanes would show up
/// as missing rows, retired-lane leakage as value drift.
inline Rows batch_table_rows() {
  const auto technology = tech::make_ntrs_100nm_cu();
  const auto gap_fills = materials::paper_dielectrics();
  const std::vector<int> levels = {5, 6, 7, 8};
  const std::vector<double> duties = {0.01, 0.1, 0.5, 1.0};

  selfconsistent::BatchProblem bp;
  std::vector<std::string> keys;
  for (const double r : duties) {
    for (const auto& gf : gap_fills) {
      for (const int level : levels) {
        bp.push_back(selfconsistent::make_level_problem(
            technology, level, gf, 2.45, r, MA_per_cm2(0.6)));
        keys.push_back("batch_table/r=" + std::to_string(r) + "/" + gf.name +
                       "/M" + std::to_string(level));
      }
    }
  }
  const selfconsistent::BatchSolution bs = selfconsistent::solve_batch(bp);
  bs.throw_first_failure();
  Rows rows;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    rows.emplace_back(keys[i] + "/tm_C",
                      kelvin_to_celsius(units::Kelvin{bs.t_metal[i]}));
    rows.emplace_back(keys[i] + "/jpeak_MA_cm2",
                      to_MA_per_cm2(A_per_m2(bs.j_peak[i])));
    rows.emplace_back(keys[i] + "/iterations",
                      static_cast<double>(bs.iterations[i]));
  }
  return rows;
}

/// Batched Monte-Carlo variation summary on a second configuration (250 nm
/// Cu node, polyimide gap fill, power duty): the sampling now routes through
/// solve_batch, so this pins the batched MC end to end — per-sample seeding,
/// lane ordering, and the ordered reduction.
inline Rows batch_variation_rows() {
  core::VariationSpec spec;
  const auto technology = tech::make_ntrs_250nm_cu();
  const auto res = core::monte_carlo_jpeak(technology,
                                           technology.top_level(),
                                           materials::make_polyimide(), 2.45,
                                           1.0, MA_per_cm2(0.6), spec, 150);
  Rows rows;
  rows.emplace_back("batch_variation/nominal", res.nominal);
  rows.emplace_back("batch_variation/mean", res.mean);
  rows.emplace_back("batch_variation/stddev", res.stddev);
  rows.emplace_back("batch_variation/p01", res.p01);
  rows.emplace_back("batch_variation/p50", res.p50);
  rows.emplace_back("batch_variation/p99", res.p99);
  for (std::size_t s : {std::size_t{0}, std::size_t{74}, std::size_t{149}})
    rows.emplace_back("batch_variation/sample" + fmt_idx(s), res.samples[s]);
  return rows;
}

/// Every golden file: name (under tests/golden/) plus its row generator.
struct GoldenCase {
  const char* file;
  Rows (*rows)();
};

inline std::vector<GoldenCase> all_cases() {
  return {
      {"table2_cu_jo06.csv", &table2_rows},
      {"table3_cu_jo18.csv", &table3_rows},
      {"table4_alcu_jo06.csv", &table4_rows},
      {"fig2_series.csv", &fig2_rows},
      {"fig3_family.csv", &fig3_rows},
      {"variation_summary.csv", &variation_rows},
      {"batch_table.csv", &batch_table_rows},
      {"batch_variation.csv", &batch_variation_rows},
  };
}

}  // namespace dsmt::golden
