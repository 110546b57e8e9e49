// The traced run's building blocks: span aggregation, and the replay of
// each layer's public calls over a workload's own request stream.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <unordered_map>
#include <vector>

#include "open_loop.h"
#include "report/json.h"
#include "service/request.h"
#include "stats.h"
#include "supervise/pool.h"
#include "trace.h"

namespace perfbench {

/// Span durations [us] grouped by name, overall and per request id.
struct SpanIndex {
  std::array<std::vector<double>, trace::kNameCount> us;
  std::array<std::unordered_map<std::uint64_t, double>, trace::kNameCount>
      by_request;

  void add(const std::vector<trace::Span>& spans);
  double median_us(trace::Name name) const;
};

struct ReplayResult {
  SpanIndex spans;
  std::vector<trace::Span> raw;  ///< the replay's spans, for the trace file
  std::vector<double> iterations;  ///< solve_one diag iterations
  std::uint64_t cache_hits = 0;    ///< first pass over the sample
  std::uint64_t cache_misses = 0;
  double fanout_efficiency = 0.0;
  /// Per request: in-process handle + encode + dump + frame [us].
  std::unordered_map<std::uint64_t, double> inproc_us;
};

/// Replays `sample` through every layer's public functions under spans:
/// Json::parse, request_from_json, build_problem, solve_one, the scalar
/// solve, thread_count, handle + response_to_json + dump + encode_frame,
/// canonical_key and a memory-only SolveCache (two passes: the first
/// measures the stream's own hit ratio, the second times hits), a
/// parallel_for fan-out of handle(), and, when `pool` is set, one
/// WorkerPool::execute per request.
ReplayResult replay_layers(const std::vector<dsmt::service::Request>& sample,
                           dsmt::supervise::WorkerPool* pool);

/// Everything a traced run gathers for the per-layer metrics.
struct LayerInputs {
  ReplayResult replay;
  /// Spans of the workload's own path (the traced server host, or the
  /// batch replica); a name missing here is taken from the replay.
  SpanIndex path;
  std::vector<double> net_self_us;  ///< client round trip minus handler
  double reply_bytes = 0.0;
  /// Counters: the untraced batch's service section, the traced host's net
  /// section and the replay fleet's supervise section.
  dsmt::report::Json report;
  /// Fan-out efficiency of the workload's own burst; 0 = take the replay's.
  double fanout_efficiency = 0.0;
  double overhead_pct = 0.0;
  double repeat_share = 0.0;
  double lag_p99_us = 0.0;
};

std::vector<Metric> layer_metrics(const LayerInputs& in);

/// The net layer's self time per request [us]: the client round trip of a
/// request answered on its first try, minus the host's handler span for it.
std::vector<double> net_self_us(const PhaseResult& phase,
                                const SpanIndex& host);

/// Appends `more` to `to`, keeping parent links.
void append_spans(std::vector<trace::Span>& to,
                  const std::vector<trace::Span>& more);

/// Writes a traced run's spans next to its other files, as
/// `<prefix>.path.tsv` (the workload's own path) and `<prefix>.replay.tsv`.
void write_trace(const std::string& prefix,
                 const std::vector<trace::Span>& path,
                 const std::vector<trace::Span>& replay);

/// Number at a key path of a JSON document; 0 when absent.
double json_at(const dsmt::report::Json& doc,
               std::initializer_list<const char*> path);

}  // namespace perfbench
