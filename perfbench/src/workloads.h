// The benchmark's workloads. Each runs from a seed, measures for a fixed
// number of seconds, verifies every reply against the in-process
// reference, and returns its figures by name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace dsmt::supervise {
class WorkerPool;
}

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;   ///< dsmt_serve built from this checkout
  std::string self_bin;    ///< this executable (traced server host)
  std::string work_dir;    ///< scratch files: sockets, batches, spans
  std::size_t threads = 1;  ///< nproc: cap on client threads/connections
  /// Traced runs: a worker fleet forked before any thread started, for
  /// replaying WorkerPool::execute.
  dsmt::supervise::WorkerPool* replay_pool = nullptr;
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

/// Where a traced run writes its span files: `<work_dir>/trace-<workload>-
/// <seed>`.
inline std::string trace_prefix(const RunOptions& o) {
  return o.work_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed);
}

/// batch_chip and batch_unique.
RunResult run_batch(const RunOptions& options);

/// Entry point of the traced server host (`perfbench host ...`).
int host_main(int argc, char** argv);

}  // namespace perfbench
