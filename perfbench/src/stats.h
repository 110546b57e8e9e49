// Small measurement helpers shared by the benchmark's workloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic clock [ns].
std::int64_t now_ns();

/// Nearest-rank quantile q in [0, 1] of `values` (copied, then sorted).
/// Returns 0 for an empty set.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// 64-bit FNV-1a, used to compare reply bytes against the reference
/// without keeping every reply in memory.
std::uint64_t fnv1a(std::string_view bytes);

/// One named figure of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench
