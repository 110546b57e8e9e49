// The seeded generator's contract: a stream is a pure function of its
// seed (byte-identical payloads), different seeds give different streams,
// the unique mix never repeats a key while the chip mix mostly does, and
// the unique mix's table-cell requests reach every technology, level and
// gap-fill.
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "generator.h"
#include "service/request.h"
#include "tech/ntrs.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::string stream_bytes(perfbench::Mix mix, std::uint64_t seed,
                         std::size_t n) {
  perfbench::RequestStream stream(mix, seed);
  std::string bytes;
  for (std::size_t i = 0; i < n; ++i) {
    bytes += perfbench::payload_of(stream.next());
    bytes += '\n';
  }
  return bytes;
}

perfbench::StreamStats stats_of(perfbench::Mix mix, std::uint64_t seed,
                                std::size_t n) {
  perfbench::RequestStream stream(mix, seed);
  perfbench::StreamStats stats;
  for (std::size_t i = 0; i < n; ++i) stats.add(stream.next());
  return stats;
}

}  // namespace

int main() {
  using perfbench::Mix;
  using dsmt::service::RequestKind;
  for (const Mix mix : {Mix::kUnique, Mix::kChip}) {
    check(stream_bytes(mix, 7, 5000) == stream_bytes(mix, 7, 5000),
          "same seed gives byte-identical streams");
    check(stream_bytes(mix, 7, 5000) != stream_bytes(mix, 8, 5000),
          "different seeds give different streams");
  }
  check(stream_bytes(Mix::kUnique, 7, 100) != stream_bytes(Mix::kChip, 7, 100),
        "the two mixes differ under one seed");

  const perfbench::StreamStats unique = stats_of(Mix::kUnique, 3, 20000);
  check(unique.repeat_share() == 0.0, "unique mix repeats no key");
  for (const RequestKind kind :
       {RequestKind::kSelfConsistent, RequestKind::kDutyCyclePoint,
        RequestKind::kTableCell})
    check(unique.kind_share(kind) > 0.15, "unique mix covers every kind");

  const perfbench::StreamStats chip = stats_of(Mix::kChip, 3, 20000);
  check(chip.repeat_share() > 0.95, "chip mix mostly repeats keys");

  // Every (technology, level, gap-fill) cell of the built-in stacks.
  std::set<std::tuple<std::string, int, std::string>> cells;
  perfbench::RequestStream stream(Mix::kUnique, 11);
  for (int i = 0; i < 200000; ++i) {
    const dsmt::service::Request r = stream.next();
    if (r.kind == RequestKind::kTableCell)
      cells.emplace(r.technology, r.level, r.dielectric);
  }
  const std::size_t levels =
      dsmt::tech::make_ntrs_250nm_cu().num_levels() +
      dsmt::tech::make_ntrs_180nm_cu().num_levels() +
      dsmt::tech::make_ntrs_130nm_cu().num_levels() +
      dsmt::tech::make_ntrs_100nm_cu().num_levels() +
      dsmt::tech::make_ntrs_250nm_alcu().num_levels() +
      dsmt::tech::make_ntrs_100nm_alcu().num_levels();
  check(cells.size() == levels * perfbench::gap_fill_names().size(),
        "unique mix reaches every technology, level and gap-fill");

  if (failures == 0) std::printf("generator_test: ok\n");
  return failures == 0 ? 0 : 1;
}
