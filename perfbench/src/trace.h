// In-memory span recorder for the traced benchmark run.
//
// A span has a name, a start and end on the monotonic clock, the span that
// caused it (its parent, on the same thread) and the id of the request it
// belongs to, shared by every span of that request. Spans go to a
// per-thread buffer with no lock on the recording path; the buffers are
// collected and written out once, when the run ends. Recording is off
// unless set_enabled(true), so untraced code pays one branch per span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Span names: the layer boundaries the benchmark times. Names follow the
/// per-layer metric names they feed.
enum Name : std::uint8_t {
  kFrameHandler = 0,    // net: NetConfig::frame_handler, whole reply build
  kServiceHandle,       // service::Server::handle
  kResponseEncode,      // service::response_to_json
  kJsonDump,            // report::Json::dump
  kEncodeFrame,         // net::encode_frame
  kSuperviseExecute,    // supervise::WorkerPool::execute
  kReplay,              // parent of one request's replayed calls
  kJsonParse,           // report::Json::parse
  kRequestDecode,       // service::request_from_json
  kBuildProblemWire,    // service::build_problem, wire kinds
  kBuildProblemTable,   // service::build_problem, table-cell kind
  kSolveOne,            // selfconsistent::solve_one
  kSolveScalar,         // selfconsistent::solve
  kThreadCount,         // parallel::thread_count
  kCanonicalKey,        // cache::canonical_key
  kCacheHandle,         // handle() with a SolveCache attached
  kBatchItem,           // one item of the batch fan-out
  kFanout,              // parallel::parallel_for over a burst
  kNameCount
};

const char* name_of(Name name);

struct Span {
  std::uint8_t name = 0;
  std::int32_t parent = -1;  ///< index into the same collected vector
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Turns recording on or off for the whole process. Change it only while
/// no span is open.
void set_enabled(bool on);
bool enabled();

/// RAII span. Nested scopes on one thread become parent and child.
class Scope {
 public:
  Scope(Name name, std::uint64_t request);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_ = -1;
};

/// Moves every recorded span out of the per-thread buffers, parents
/// rewritten to indices of the returned vector. Call only when no thread
/// is recording.
std::vector<Span> collect();

/// Binary span file: written by the traced server host at drain, read by
/// the benchmark. Returns false on I/O or format errors.
bool write_file(const std::string& path, const std::vector<Span>& spans);
bool read_file(const std::string& path, std::vector<Span>& spans);

/// Writes spans as tab-separated text for reading: one line per span with
/// its index, name, parent index, request id, start and end [ns]. Returns
/// false on I/O errors.
bool write_tsv(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench::trace
