// perfbench — the repository benchmark's load generator and checker.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --serve PATH --work-dir DIR
//       runs one workload (batch_chip, batch_unique) and prints, as its last stdout line, one JSON object
//       with the keys correct, attempted, failed and metrics. --trace 0
//       gives the end-to-end metrics, --trace 1 the per-layer metrics of
//       the traced run. Progress and server counters go to stderr.
//   perfbench host --listen SOCKET --spans FILE
//       the traced server host (started by the traced run itself).
//
// Exit status: 0 when every reply was verified, 1 when the run measured
// but a reply was wrong or missing, 2 on usage or set-up errors.
#include <sched.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "supervise/pool.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload batch_chip|batch_unique --seed N "
               "--seconds S --trace 0|1 --serve PATH --work-dir DIR\n"
               "       perfbench host --listen SOCKET --spans FILE\n");
  return 2;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return 1;
}

std::string self_path() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

bool known_workload(const std::string& w) {
  return w == "batch_chip" || w == "batch_unique";
}

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return {};
    flags[key.substr(2)] = argv[i + 1];
  }
  if ((argc - first) % 2 != 0) return {};
  return flags;
}

void print_result(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "host") return host_main(argc, argv);

  auto flags = parse_flags(argc, argv, 1);
  RunOptions o;
  o.workload = flags["workload"];
  if (!known_workload(o.workload) || flags["seed"].empty() ||
      flags["seconds"].empty() || flags["serve"].empty() ||
      flags["work-dir"].empty() ||
      (flags["trace"] != "0" && flags["trace"] != "1"))
    return usage();
  try {
    o.seed = std::stoull(flags["seed"]);
    o.seconds = std::stod(flags["seconds"]);
    o.trace = flags["trace"] == "1";
    o.serve_bin = flags["serve"];
    o.work_dir = flags["work-dir"];
    o.self_bin = self_path();
    o.threads = available_cpus();

    // The replay fleet is forked first, while this process has one thread.
    std::unique_ptr<dsmt::supervise::WorkerPool> pool;
    if (o.trace) {
      dsmt::supervise::SuperviseConfig config;
      config.publish_signoff = false;
      pool = std::make_unique<dsmt::supervise::WorkerPool>(config);
      o.replay_pool = pool.get();
    }
    const RunResult result = run_batch(o);
    if (pool != nullptr) pool->shutdown();
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
