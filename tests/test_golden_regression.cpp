// Golden-value regression harness: recomputes every paper artifact pinned
// under tests/golden/ (Tables 2-4 design-rule cells, Fig. 2/3 sweep series,
// the Monte-Carlo variation summary) and compares each value against the
// snapshot with a tight per-value tolerance.
//
// Any numeric drift — from threading, refactoring, or a changed model —
// fails tier-1 loudly. If a change is *intended* to move the numbers,
// regenerate with tools/update_golden.py and review the CSV diff like code:
// the diff IS the numeric impact of the change.
//
// The snapshots are written with %.17g (exact double round-trip), so the
// tolerance below has no formatting slack to absorb — it only covers
// last-ulp differences across compilers/optimization levels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <string>

#include "golden_cases.h"
#include "parallel/thread_pool.h"

#ifndef DSMT_GOLDEN_DIR
#error "DSMT_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif

namespace dsmt::golden {

// Names each case by its snapshot file. Without this gtest prints the raw
// bytes of the two pointers, which ASLR moves on every run, so the listed
// test names (and the ctest names discovered from them) changed per build.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.file; }

namespace {

constexpr double kRelTol = 1e-12;

std::map<std::string, double> load_golden(const std::string& file) {
  const std::string path = std::string(DSMT_GOLDEN_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden snapshot " << path
                         << " — regenerate with tools/update_golden.py";
  std::map<std::string, double> out;
  std::string line;
  std::getline(in, line);  // header
  EXPECT_EQ(line, "key,value") << path << " has an unexpected header";
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto comma = line.rfind(',');
    if (comma == std::string::npos) {
      ADD_FAILURE() << path << ": bad line '" << line << "'";
      continue;
    }
    out[line.substr(0, comma)] = std::strtod(line.c_str() + comma + 1, nullptr);
  }
  return out;
}

class GoldenRegression : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenRegression, MatchesSnapshot) {
  const GoldenCase& c = GetParam();
  const auto golden = load_golden(c.file);
  if (golden.empty()) GTEST_SKIP() << "no snapshot loaded";
  const Rows computed = c.rows();
  EXPECT_EQ(computed.size(), golden.size())
      << c.file << ": row count changed — regenerate with "
      << "tools/update_golden.py and review the diff";
  for (const auto& [key, value] : computed) {
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << c.file << ": key '" << key << "' not in snapshot";
      continue;
    }
    const double want = it->second;
    const double scale = std::max({std::abs(want), std::abs(value), 1e-300});
    EXPECT_LE(std::abs(value - want), kRelTol * scale)
        << c.file << " [" << key << "]: computed " << value << ", golden "
        << want << " (rel err "
        << std::abs(value - want) / scale << ")";
  }
}

std::string case_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  std::string name = info.param.file;
  name = name.substr(0, name.rfind('.'));
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSnapshots, GoldenRegression,
                         ::testing::ValuesIn(all_cases()), case_name);

/// Serializes rows exactly as dsmt_golden_gen writes them (%.17g), so a
/// byte-equal comparison here is the same statement as "the regenerated
/// snapshot file would be byte-identical".
std::string serialize(const Rows& rows) {
  std::string out = "key,value\n";
  char line[256];
  for (const auto& [key, value] : rows) {
    std::snprintf(line, sizeof line, "%s,%.17g\n", key.c_str(), value);
    out += line;
  }
  return out;
}

// The batched snapshots must be byte-identical at DSMT_THREADS=1 and 8: the
// batch decomposes over parallel_for in static index blocks, so the thread
// count may only change wall-clock, never a single serialized byte.
class GoldenThreadInvariance : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenThreadInvariance, SerializedBytesIdenticalAcrossThreadCounts) {
  const GoldenCase& c = GetParam();
  parallel::set_thread_count(1);
  const std::string serial = serialize(c.rows());
  parallel::set_thread_count(8);
  const std::string parallel8 = serialize(c.rows());
  parallel::set_thread_count(0);
  EXPECT_EQ(serial, parallel8)
      << c.file << ": serialized snapshot differs between 1 and 8 threads";
}

INSTANTIATE_TEST_SUITE_P(
    BatchSnapshots, GoldenThreadInvariance,
    ::testing::ValuesIn(std::vector<GoldenCase>{
        {"batch_table.csv", &batch_table_rows},
        {"batch_variation.csv", &batch_variation_rows},
    }),
    case_name);

}  // namespace
}  // namespace dsmt::golden
