// dsmt_serve — front end over the fault-tolerant request service
// (dsmt::service::Server), in one of two modes:
//
// Batch mode (default): reads a JSON batch (a bare array of request
// objects, or {"requests": [...]}), serves it through admission control,
// one solve attempt per request and the analytic degradation rung, and
// prints one JSON document:
//
//   {"responses": [...one structured response per request, in order...],
//    "service":   {...admission and outcome counters, solve cache...}}
//
// Socket mode (--listen PATH or --tcp PORT): runs the hardened socket
// front end (dsmt::net::Server) speaking DSM1-framed request/response JSON
// until SIGTERM/SIGINT, then drains gracefully — stop accepting, finish or
// deadline-out in-flight work, flush — and prints the sign-off report
// (connection counters plus the service section) on stdout before exiting.
//
// Process isolation (--isolate, socket mode only): solves run in forked
// worker children supervised by dsmt::supervise::WorkerPool instead of in
// the serving process. A worker that segfaults, aborts, OOMs, or trips its
// rlimit rails (--rlimit-as-mb / --rlimit-cpu-s) kills one request — the
// front end answers it "worker-crashed", restarts the slot, and keeps
// serving; a request that crashes two workers is quarantined. --crash-faults
// arms the chaos harness IN THE CHILDREN ONLY (see numeric/fault_injection).
//
// Exit-code contract (also printed by --help):
//   0  batch: every request got a terminal response (shed and degraded
//      count as served; with --strict, additionally no terminal response
//      carries a failure status);
//      socket: the drain completed cleanly inside its tick budget (with
//      --strict, a forced drain also exits 1). --isolate does not change
//      the contract: worker deaths surface as per-request "worker-crashed"
//      responses, never as a nonzero front-end exit
//   1  --strict violation: a terminal failure response (batch) or a forced
//      drain (socket)
//   2  usage, batch-parse, or socket-setup errors (--isolate with --batch,
//      unknown --crash-faults kind, or a failed initial worker fork), or a
//      batch reply that could not be written to stdout
//
// With fault injection disarmed, batch output is bit-identical for every
// DSMT_THREADS value, and so is each connection's reply byte stream in
// socket mode — with or without --isolate (worker replies are forwarded
// byte-verbatim).
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/warm.h"
#include "net/server.h"
#include "numeric/fault_injection.h"
#include "service/server.h"
#include "supervise/pool.h"

namespace {

using namespace dsmt;

/// Single funnel for every usage/error print, so messages stay uniform and
/// grep-able ("dsmt_serve: ..." on stderr).
void print_error(const std::string& message) {
  std::fprintf(stderr, "dsmt_serve: %s\n", message.c_str());
}

int usage(bool to_stdout = false) {
  std::fprintf(
      to_stdout ? stdout : stderr,
      "usage: dsmt_serve [--batch file.json|-] [--listen SOCKET_PATH]\n"
      "                  [--tcp PORT] [--queue N] [--deadline-ms M]\n"
      "                  [--max-connections N] [--max-inflight N]\n"
      "                  [--tick-ms M] [--idle-ticks N] [--drain-ticks N]\n"
      "                  [--isolate] [--workers N] [--rlimit-as-mb N]\n"
      "                  [--rlimit-cpu-s N] [--crash-faults KIND[:SUBSTR]]\n"
      "                  [--warm-cache] [--indent N] [--strict] [--help]\n"
      "\n"
      "Batch mode (default; --batch - reads stdin) serves one JSON batch\n"
      "and prints {\"responses\": [...], \"service\": {...}}.\n"
      "Socket mode (--listen or --tcp, mutually exclusive with --batch)\n"
      "serves DSM1-framed requests until SIGTERM/SIGINT, drains\n"
      "gracefully, and prints the sign-off report.\n"
      "\n"
      "--isolate (socket mode only) runs solves in --workers forked child\n"
      "processes: a crashing request costs one worker, answered\n"
      "\"worker-crashed\"; two crashes quarantine the request's hash.\n"
      "--rlimit-as-mb/--rlimit-cpu-s rail each worker; --crash-faults\n"
      "KIND[:SUBSTR] (abort|segv|oom|stall, default SUBSTR \"poison\") arms the\n"
      "crash-chaos harness in the children only.\n"
      "\n"
      "--warm-cache attaches an in-memory content-addressed solve cache and\n"
      "pre-solves the hot lattice into it. Every hit is checksum-verified\n"
      "and replies stay byte-identical to cold solves; corrupt entries are\n"
      "quarantined, never served. Works with and without --isolate (the\n"
      "parent shares the cache).\n"
      "\n"
      "exit codes:\n"
      "  0  served: every request answered (batch) / clean drain (socket);\n"
      "     worker crashes under --isolate never change the exit code\n"
      "  1  --strict violation: terminal failure response or forced drain\n"
      "  2  usage, batch-parse, or socket-setup error (--isolate with\n"
      "     --batch, bad --crash-faults kind, failed initial worker fork),\n"
      "     or batch replies that could not be written (\"cannot write\n"
      "     replies: REASON\")\n");
  return to_stdout ? 0 : 2;
}

bool read_all(const std::string& path, std::string& out) {
  std::FILE* in = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (in == nullptr) return false;
  // A regular file is read in one pass into a string of its size; stdin,
  // a pipe or a file that grows meanwhile takes the 16 KiB growth path.
  struct stat st {};
  if (in != stdin && ::fstat(::fileno(in), &st) == 0 && S_ISREG(st.st_mode) &&
      st.st_size > 0) {
    out.resize(static_cast<std::size_t>(st.st_size));
    out.resize(std::fread(out.data(), 1, out.size(), in));
  }
  char buf[1 << 14];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, in)) > 0)
    out.append(buf, got);
  const bool ok = std::ferror(in) == 0;
  if (in != stdin) std::fclose(in);
  return ok;
}

int run_batch(const std::map<std::string, std::string>& opts,
              const service::ServerConfig& config, bool strict, int indent) {
  const auto batch_it = opts.find("batch");
  const std::string path = batch_it != opts.end() ? batch_it->second : "-";
  std::string text;
  if (!read_all(path, text)) {
    print_error("cannot read batch '" + path + "'");
    return 2;
  }

  const std::vector<service::Request> batch = service::parse_batch(text);
  service::Server server(config);
  const std::vector<service::Response> responses = server.submit_batch(batch);

  int failures = 0;
  for (const service::Response& resp : responses)
    if (!resp.ok()) ++failures;
  // The document streams to stdout part by part; the first failed write
  // keeps its errno and stops the rest.
  int write_errno = 0;
  const auto write_out = [&](std::string_view bytes) {
    if (write_errno == 0 &&
        std::fwrite(bytes.data(), 1, bytes.size(), stdout) != bytes.size())
      write_errno = errno != 0 ? errno : EIO;
  };
  service::write_batch(responses, server.service_json(), indent, write_out);
  write_out("\n");
  if (write_errno == 0 && std::fflush(stdout) != 0)
    write_errno = errno != 0 ? errno : EIO;
  if (write_errno != 0) {
    print_error(std::string("cannot write replies: ") +
                std::strerror(write_errno));
    return 2;
  }
  if (strict && failures > 0) {
    print_error("--strict: " + std::to_string(failures) + " of " +
                std::to_string(responses.size()) +
                " responses carry a failure status");
    return 1;
  }
  return 0;
}

/// Parses --crash-faults KIND[:SUBSTR] into a child fault plan. Returns
/// false on an unknown kind.
bool parse_crash_faults(const std::string& value,
                        numeric::fault::FaultPlan& plan) {
  const std::size_t colon = value.find(':');
  const std::string kind = value.substr(0, colon);
  if (kind == "abort")
    plan.kind = numeric::fault::FaultKind::kCrashAbort;
  else if (kind == "segv")
    plan.kind = numeric::fault::FaultKind::kCrashSegv;
  else if (kind == "oom")
    plan.kind = numeric::fault::FaultKind::kCrashOom;
  else if (kind == "stall")
    plan.kind = numeric::fault::FaultKind::kCrashStall;
  else
    return false;
  plan.kernel_substr = "supervise/worker";
  plan.key_substr =
      colon == std::string::npos ? "poison" : value.substr(colon + 1);
  return true;
}

int run_socket(const net::NetConfig& config, bool strict, int indent,
               supervise::WorkerPool* pool) {
  net::Server server(config);
  server.open();  // fail fast (and resolve an ephemeral TCP port) pre-loop
  if (config.endpoint.kind == net::Endpoint::Kind::kTcp)
    std::fprintf(stderr, "dsmt_serve: listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server.bound_port()));
  else
    std::fprintf(stderr, "dsmt_serve: listening on %s\n",
                 config.endpoint.path.c_str());
  server.install_signal_drain();
  const net::NetStats stats = server.run();

  report::Json net_json = report::Json::object();
  net_json.set("accepted", report::Json::integer(
                               static_cast<long long>(stats.accepted)))
      .set("rejected_connections",
           report::Json::integer(
               static_cast<long long>(stats.rejected_connections)))
      .set("frames_in",
           report::Json::integer(static_cast<long long>(stats.frames_in)))
      .set("replies_sent",
           report::Json::integer(static_cast<long long>(stats.replies_sent)))
      .set("pings", report::Json::integer(static_cast<long long>(stats.pings)))
      .set("rejected_inflight",
           report::Json::integer(
               static_cast<long long>(stats.rejected_inflight)))
      .set("invalid_requests",
           report::Json::integer(
               static_cast<long long>(stats.invalid_requests)))
      .set("protocol_errors",
           report::Json::integer(
               static_cast<long long>(stats.protocol_errors)))
      .set("evicted_idle",
           report::Json::integer(static_cast<long long>(stats.evicted_idle)))
      .set("evicted_midframe",
           report::Json::integer(
               static_cast<long long>(stats.evicted_midframe)))
      .set("evicted_stalled",
           report::Json::integer(
               static_cast<long long>(stats.evicted_stalled)))
      .set("resets", report::Json::integer(
                         static_cast<long long>(stats.resets)))
      .set("drained_clean", report::Json::boolean(stats.drained_clean));
  report::Json root = report::Json::object();
  root.set("net", std::move(net_json));
  root.set("service", server.service().service_json());
  if (pool != nullptr) root.set("supervise", pool->supervise_json());
  std::printf("%s\n", root.dump(indent).c_str());

  if (!stats.drained_clean) {
    print_error("drain timed out with work in flight (forced shutdown)");
    if (strict) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> opts;
  bool strict = false;
  bool isolate = false;
  bool warm = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(/*to_stdout=*/true);
    if (arg == "--strict") {
      strict = true;
      continue;
    }
    if (arg == "--isolate") {
      isolate = true;
      continue;
    }
    if (arg == "--warm-cache") {
      warm = true;
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) return usage();
    opts[arg.substr(2)] = argv[++i];
  }

  try {
    service::ServerConfig config;
    if (opts.count("queue"))
      config.queue_capacity =
          static_cast<std::size_t>(std::stoul(opts["queue"]));
    if (opts.count("deadline-ms"))
      config.deadline_ns =
          static_cast<std::uint64_t>(std::stoull(opts["deadline-ms"])) *
          1000000ULL;
    const int indent = opts.count("indent") ? std::stoi(opts["indent"]) : 2;

    // Content-addressed solve cache (memory-only), warmed before any
    // server thread exists.
    if (warm) {
      auto solve_cache =
          std::make_shared<cache::SolveCache>(cache::SolveCacheConfig{});
      const cache::WarmReport report = cache::warm_hot_lattice(*solve_cache);
      std::fprintf(stderr,
                   "dsmt_serve: warm cache: %zu lattice points, %zu "
                   "solved, %zu cached\n",
                   report.requested, report.solved, report.inserted);
      config.solve_cache = std::move(solve_cache);
    }

    const bool socket_mode = opts.count("listen") > 0 || opts.count("tcp") > 0;
    if (!socket_mode) {
      if (isolate) {
        print_error("--isolate requires socket mode (--listen or --tcp)");
        return usage();
      }
      return run_batch(opts, config, strict, indent);
    }

    if (opts.count("batch") > 0 || (opts.count("listen") && opts.count("tcp"))) {
      print_error("--listen/--tcp are mutually exclusive with each other "
                  "and with --batch");
      return usage();
    }
    net::NetConfig net_config;
    net_config.service = config;
    if (opts.count("listen")) {
      net_config.endpoint.kind = net::Endpoint::Kind::kUnix;
      net_config.endpoint.path = opts["listen"];
    } else {
      net_config.endpoint.kind = net::Endpoint::Kind::kTcp;
      net_config.endpoint.port =
          static_cast<std::uint16_t>(std::stoi(opts["tcp"]));
    }
    if (opts.count("max-connections"))
      net_config.max_connections =
          static_cast<std::size_t>(std::stoul(opts["max-connections"]));
    if (opts.count("max-inflight"))
      net_config.max_inflight_total =
          static_cast<std::size_t>(std::stoul(opts["max-inflight"]));
    if (opts.count("tick-ms"))
      net_config.tick_ms = std::stoi(opts["tick-ms"]);
    if (opts.count("idle-ticks"))
      net_config.idle_timeout_ticks = std::stoull(opts["idle-ticks"]);
    if (opts.count("drain-ticks"))
      net_config.drain_timeout_ticks = std::stoull(opts["drain-ticks"]);
    // The request budget mirrors the service deadline so socket callers get
    // the same per-request guarantee as batch callers.
    net_config.request_deadline_ns = config.deadline_ns;

    if (!isolate) return run_socket(net_config, strict, indent, nullptr);

    supervise::SuperviseConfig sup;
    sup.service = config;  // the CHILD-side service configuration
    // The parent serves verified hits itself; the WorkerPool constructor
    // strips service.solve_cache so children never inherit the cache.
    sup.solve_cache = config.solve_cache;
    if (opts.count("workers"))
      sup.workers = static_cast<std::size_t>(std::stoul(opts["workers"]));
    if (opts.count("rlimit-as-mb"))
      sup.limits.rlimit_as_bytes =
          static_cast<std::uint64_t>(std::stoull(opts["rlimit-as-mb"]))
          << 20;
    if (opts.count("rlimit-cpu-s"))
      sup.limits.rlimit_cpu_seconds =
          static_cast<std::uint64_t>(std::stoull(opts["rlimit-cpu-s"]));
    if (opts.count("crash-faults") &&
        !parse_crash_faults(opts["crash-faults"], sup.limits.child_fault)) {
      print_error("--crash-faults: unknown kind in '" +
                  opts["crash-faults"] + "' (want abort|segv|oom|stall)");
      return usage();
    }
    // The in-process service goes unused in isolate mode; the pool owns the
    // sign-off "service" key (quarantine table + worker fleet health).
    net_config.service.publish_signoff = false;

    // Fork the fleet BEFORE any server thread exists: the constructor is
    // the single-threaded window where fork() is safe.
    auto pool = std::make_unique<supervise::WorkerPool>(sup);
    if (pool->live_workers() == 0) {
      print_error("--isolate: no worker could be forked");
      return 2;
    }
    supervise::WorkerPool* pool_ptr = pool.get();
    net_config.frame_handler = [pool_ptr](const service::Request& request,
                                          std::uint64_t seq) {
      return pool_ptr->execute(request, seq).frame;
    };
    net_config.health_source = [pool_ptr] {
      return pool_ptr->supervise_json();
    };
    const int code = run_socket(net_config, strict, indent, pool_ptr);
    pool->shutdown();
    return code;
  } catch (const std::exception& e) {
    print_error(e.what());
    return 2;
  }
}
