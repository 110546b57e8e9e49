#include "selfconsistent/sweep.h"

#include <cmath>
#include <stdexcept>

#include "parallel/parallel_for.h"
#include "selfconsistent/batch.h"
#include "thermal/impedance.h"

namespace dsmt::selfconsistent {

std::vector<double> log_spaced(double lo, double hi, int points) {
  if (lo <= 0.0 || hi <= lo || points < 2)
    throw std::invalid_argument("log_spaced: bad range");
  std::vector<double> v(points);
  const double step = std::log(hi / lo) / (points - 1);
  for (int i = 0; i < points; ++i) v[i] = lo * std::exp(i * step);
  v.back() = hi;
  return v;
}

std::vector<DutyCyclePoint> sweep_duty_cycle(
    const Problem& base, const std::vector<double>& duty_cycles) {
  // Reference thermal-only line (b): j_rms at the r = 1 self-consistent
  // point, divided by sqrt(r).
  Problem dc = base;
  dc.duty_cycle = 1.0;
  const double jrms_dc = solve_one(dc).j_rms;

  // Solve every point as ONE batch: each duty cycle is still an independent
  // self-consistent solve (one lane), and the batch decomposes over
  // parallel_for in static index blocks, so the bits match the old
  // per-point parallel_map at every thread count.
  const std::size_t n = duty_cycles.size();
  BatchProblem bp;
  bp.reserve(n);
  for (const double r : duty_cycles) {
    // push_back only reads the POD physics fields, so push the base and
    // patch the lane's duty in place of copying a whole Problem (the metal
    // name alone would cost an allocation per lane).
    bp.push_back(base);
    bp.duty_cycle.back() = r;
  }
  BatchSolution bs = solve_batch(bp);
  // Same failure contract as parallel_map's FirstError: the lowest-index
  // failed lane's exception.
  bs.throw_first_failure();

  // Drain the lanes, moving each diag chain out rather than copying it.
  std::vector<DutyCyclePoint> points(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double r = duty_cycles[k];
    Problem p = base;
    p.duty_cycle = r;
    DutyCyclePoint& pt = points[k];
    pt.duty_cycle = r;
    pt.sc = bs.take_lane_solution(k);
    pt.jpeak_em_only = jpeak_em_only(p);
    pt.jpeak_thermal_only = A_per_m2(jrms_dc / std::sqrt(r));
  }
  return points;
}

std::vector<std::vector<DutyCyclePoint>> sweep_j0(
    const Problem& base, const std::vector<double>& j0_values,
    const std::vector<double>& duty_cycles) {
  // Parallel over the j0 family; the nested sweep_duty_cycle runs inline on
  // the worker, so the grid is covered once with no oversubscription.
  return parallel::parallel_map<std::vector<DutyCyclePoint>>(
      j0_values.size(), [&](std::size_t i) {
        Problem p = base;
        p.j0 = A_per_m2(j0_values[i]);
        return sweep_duty_cycle(p, duty_cycles);
      });
}

Problem make_level_problem(const tech::Technology& technology, int level,
                           const materials::Dielectric& gap_fill, double phi,
                           double duty_cycle, units::CurrentDensity j0) {
  const auto& layer = technology.layer(level);
  const auto stack = technology.stack_below(level, gap_fill);
  const auto b = metres(stack.total_thickness());
  const auto w_eff = thermal::effective_width(metres(layer.width), b, phi);
  const auto rth = thermal::rth_per_length(stack, w_eff);

  Problem p;
  p.metal = technology.metal;
  p.duty_cycle = duty_cycle;
  p.j0 = j0;
  p.heating_coefficient = heating_coefficient(
      metres(layer.width), metres(layer.thickness), rth);
  return p;
}

std::vector<TableCell> generate_design_rule_table(const TableSpec& spec) {
  // Flatten the (duty x gap-fill x level) grid so every cell solves in
  // parallel; the flattened index preserves the serial nesting order, so
  // the returned vector is laid out exactly as the loop version's.
  const std::size_t n_r = spec.duty_cycles.size();
  const std::size_t n_gf = spec.gap_fills.size();
  const std::size_t n_lv = spec.levels.size();

  // Key the cells. The (level, dielectric, duty) key is derived from the
  // flattened index idx = (r_idx * n_gf + gf_idx) * n_lv + lv_idx, built by
  // direct traversal of the nesting without per-cell divisions.
  const std::size_t n_cells = n_r * n_gf * n_lv;
  std::vector<TableCell> cells(n_cells);
  {
    std::size_t idx = 0;
    for (std::size_t r_idx = 0; r_idx < n_r; ++r_idx)
      for (std::size_t gf_idx = 0; gf_idx < n_gf; ++gf_idx)
        for (std::size_t lv_idx = 0; lv_idx < n_lv; ++lv_idx, ++idx) {
          TableCell& cell = cells[idx];
          cell.level = spec.levels[lv_idx];
          cell.dielectric = spec.gap_fills[gf_idx].name;
          cell.duty_cycle = spec.duty_cycles[r_idx];
        }
  }
  if (n_cells == 0) return cells;

  // One batch over every cell. The duty cycle only sets
  // Problem::duty_cycle (the heating coefficient is geometry-only), so each
  // (gap-fill, level) pair builds its layer stack exactly once and the n_r
  // duty variants reuse the prototype — bit-identical lanes, n_r x fewer
  // stack constructions. Prototypes are built in slot order, which is the
  // cell order of the first duty row, so a bad level throws from the same
  // lowest cell a parallel_map would have reported.
  std::vector<Problem> protos(n_gf * n_lv);
  for (std::size_t slot = 0; slot < protos.size(); ++slot)
    protos[slot] = make_level_problem(
        spec.technology, spec.levels[slot % n_lv],
        spec.gap_fills[slot / n_lv], spec.phi, spec.duty_cycles[0], spec.j0);
  // Lane order groups each prototype's duty variants contiguously (duty
  // innermost), which is what the batch solver's duty-run memo shares
  // rho(T)/exp evaluations across. The public cell order is untouched:
  // order[] maps lane -> flattened cell index. Built by direct traversal
  // of the (gap fill, level, duty) grid — no sort, no divisions.
  std::vector<std::size_t> order;
  order.reserve(n_cells);
  BatchProblem bp;
  bp.reserve(n_cells);
  for (std::size_t slot = 0; slot < protos.size(); ++slot)
    for (std::size_t r_idx = 0; r_idx < n_r; ++r_idx) {
      order.push_back(r_idx * n_gf * n_lv + slot);
      // push_back only reads the POD physics fields, so patch the lane's
      // duty in place of copying the whole prototype per cell.
      bp.push_back(protos[slot]);
      bp.duty_cycle.back() = spec.duty_cycles[r_idx];
    }
  BatchSolution bs = solve_batch(bp);
  // Same failure contract as parallel_map's FirstError: the lowest-index
  // failed CELL throws — which, with the lane permutation, is not
  // necessarily the lowest failed lane.
  std::size_t bad_lane = BatchSolution::npos;
  std::size_t bad_cell = n_cells;
  for (std::size_t lane = 0; lane < order.size(); ++lane) {
    if (!bs.ok(lane) && order[lane] < bad_cell) {
      bad_lane = lane;
      bad_cell = order[lane];
    }
  }
  if (bad_lane != BatchSolution::npos) bs.throw_lane(bad_lane);
  // Drain in CELL order: the big writes (a Solution per TableCell) land
  // sequentially; only the much smaller per-lane reads are scattered by the
  // permutation. lane_for inverts order[].
  std::vector<std::size_t> lane_for(n_cells, 0);
  for (std::size_t lane = 0; lane < order.size(); ++lane)
    lane_for[order[lane]] = lane;
  for (std::size_t cell_idx = 0; cell_idx < n_cells; ++cell_idx)
    bs.drain_lane_into(lane_for[cell_idx], cells[cell_idx].sol);
  return cells;
}

}  // namespace dsmt::selfconsistent
