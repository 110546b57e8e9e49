// dsmt_loadgen — load and chaos harness for the socket front end.
//
// Drives a live dsmt_serve socket server with N concurrent clients and
// reports latency percentiles, or attacks it with hostile-client behaviour
// (kill-mid-frame, garbage bytes) and verifies the server keeps answering
// well-formed requests afterwards. Exit code 0 means every expectation of
// the selected mode held; 1 means the server misbehaved (missing or short
// reply, unexpected close, or a failed post-attack probe); 2 means usage
// error.
//
// Modes:
//   normal        each client sends --requests framed solve requests
//                 back-to-back and measures per-request round-trip latency
//   kill-midframe each client sends a partial frame (header + half payload)
//                 and slams the connection shut; a probe client then checks
//                 the server still serves
//   garbage       each client sends seeded random bytes; the server must
//                 answer one well-formed kInvalidInput error frame and
//                 close; a probe client then checks the server still serves
//   crash-storm   interleaves poison requests (ids matching the server's
//                 armed --crash-faults substring, --poison-percent of
//                 traffic) with clean requests against a dsmt_serve
//                 --isolate server. Every request — poison included — must
//                 be answered exactly once; clean (survivor) lanes must
//                 answer "ok" and their latency percentiles are reported
//                 separately from the poison lanes
//   cache-storm   every client sends the IDENTICAL request stream (same ids,
//                 same parameters) so concurrent misses stampede the same
//                 cache keys; every request must answer "ok" and — the
//                 integrity claim — reply i must be byte-identical across
//                 all clients (hit, coalesced hit, and cold solve must be
//                 indistinguishable on the wire)
//
// This is a tool, not library code: it uses blocking sockets and raw
// syscalls directly (lint rule R11 fences those out of src/ outside
// src/net/, but tools/ is exempt, like tests/).
#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/splitmix.h"
#include "net/wire.h"
#include "report/json.h"
#include "service/request.h"

namespace {

using dsmt::net::encode_frame;
using dsmt::net::kFrameHeaderBytes;
using dsmt::net::kFrameMagic;

void print_error(const std::string& message) {
  std::fprintf(stderr, "dsmt_loadgen: %s\n", message.c_str());
}

[[noreturn]] void usage(int exit_code) {
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "usage: dsmt_loadgen (--connect SOCKET_PATH | --tcp PORT) [options]\n"
      "\n"
      "modes (default --mode normal):\n"
      "  --mode normal         framed solve requests, latency percentiles\n"
      "  --mode kill-midframe  abort connections mid-frame, then probe\n"
      "  --mode garbage        send non-protocol bytes, then probe\n"
      "  --mode crash-storm    poison ids (\"poison-K\") interleaved with\n"
      "                        clean traffic against dsmt_serve --isolate;\n"
      "                        every request must be answered exactly once\n"
      "                        (--crash-storm is shorthand for this mode)\n"
      "  --mode cache-storm    identical request stream from every client\n"
      "                        (a coalescing stampede); all replies must be\n"
      "                        \"ok\" and byte-identical across clients\n"
      "\n"
      "options:\n"
      "  --clients N         concurrent client connections (default 4)\n"
      "  --requests N        requests per client (default 8)\n"
      "  --poison-percent P  crash-storm: percent of poison traffic\n"
      "                      (1-100, default 10)\n"
      "  --seed S            fault/garbage stream seed (default 1)\n"
      "  --json              emit the report as JSON on stdout\n"
      "  --help              this text\n"
      "\n"
      "exit codes: 0 = all expectations held, 1 = server misbehaved,\n"
      "2 = usage error\n");
  std::exit(exit_code);
}

// ---- blocking client-side socket plumbing -------------------------------

struct ClientSock {
  int fd = -1;
  ~ClientSock() {
    if (fd >= 0) ::close(fd);
  }
  ClientSock() = default;
  ClientSock(ClientSock&& other) noexcept : fd(other.fd) { other.fd = -1; }
  ClientSock(const ClientSock&) = delete;
  ClientSock& operator=(const ClientSock&) = delete;
};

bool connect_unix(ClientSock& sock, const std::string& path) {
  sock.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (sock.fd < 0) return false;
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return false;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (;;) {
    if (::connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0)
      return true;
    if (errno != EINTR) return false;
  }
}

bool connect_tcp(ClientSock& sock, std::uint16_t port) {
  sock.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (sock.fd < 0) return false;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (;;) {
    if (::connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0)
      return true;
    if (errno != EINTR) return false;
  }
}

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const long n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool recv_all(int fd, char* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const long n = ::recv(fd, data + got, len - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or error before the full read
  }
  return true;
}

/// Reads one complete frame; returns false on EOF/garbage/oversize.
bool recv_frame(int fd, std::string& payload) {
  char header[kFrameHeaderBytes];
  if (!recv_all(fd, header, sizeof header)) return false;
  if (std::memcmp(header, kFrameMagic, sizeof kFrameMagic) != 0) return false;
  std::uint32_t len = 0;
  for (std::size_t i = 4; i < kFrameHeaderBytes; ++i)
    len = (len << 8) | static_cast<unsigned char>(header[i]);
  if (len > (32u << 20)) return false;  // sanity cap on the client side
  payload.resize(len);
  return len == 0 || recv_all(fd, payload.data(), len);
}

// ---- run configuration and results --------------------------------------

struct Options {
  bool use_tcp = false;
  std::string socket_path;
  std::uint16_t port = 0;
  std::string mode = "normal";
  int clients = 4;
  int requests = 8;
  int poison_percent = 10;  ///< crash-storm poison share of traffic [%]
  std::uint64_t seed = 1;
  bool json = false;
};

struct ClientResult {
  int sent = 0;
  int replies = 0;      ///< well-formed frames with the echoed id
  int failures = 0;     ///< connect/send/recv/validation failures
  int poison_sent = 0;  ///< crash-storm: poison requests issued
  int status_ok = 0;           ///< crash-storm replies by status
  int status_crashed = 0;      ///< "worker-crashed"
  int status_other = 0;        ///< anything else
  std::vector<double> latency_ms;         ///< clean (survivor) lanes
  std::vector<double> poison_latency_ms;  ///< crash-storm poison lanes
  std::vector<std::string> reply_bytes;   ///< cache-storm: raw reply payloads
};

bool connect_client(ClientSock& sock, const Options& opt) {
  return opt.use_tcp ? connect_tcp(sock, opt.port)
                     : connect_unix(sock, opt.socket_path);
}

std::string request_payload(int client, int index) {
  dsmt::service::Request req;
  req.id = "load-" + std::to_string(client) + "-" + std::to_string(index);
  req.kind = dsmt::service::RequestKind::kSelfConsistent;
  // Spread duty cycles so the reference cache sees distinct operating
  // points, like a real per-wire query stream would.
  req.duty_cycle = 0.05 + 0.01 * static_cast<double>(index % 40);
  return dsmt::service::request_to_json(req).dump(-1);
}

void run_normal_client(const Options& opt, int client, ClientResult& out) {
  ClientSock sock;
  if (!connect_client(sock, opt)) {
    ++out.failures;
    return;
  }
  std::string payload;
  for (int i = 0; i < opt.requests; ++i) {
    const std::string frame = encode_frame(request_payload(client, i));
    const auto start = std::chrono::steady_clock::now();
    ++out.sent;
    if (!send_all(sock.fd, frame.data(), frame.size()) ||
        !recv_frame(sock.fd, payload)) {
      ++out.failures;
      return;
    }
    const auto stop = std::chrono::steady_clock::now();
    try {
      const dsmt::report::Json doc = dsmt::report::Json::parse(payload);
      const dsmt::report::Json* id = doc.find("id");
      const dsmt::report::Json* status = doc.find("status");
      if (id == nullptr || !id->is_string() ||
          id->as_string() !=
              "load-" + std::to_string(client) + "-" + std::to_string(i) ||
          status == nullptr || !status->is_string()) {
        ++out.failures;
        return;
      }
    } catch (const std::exception&) {
      ++out.failures;
      return;
    }
    ++out.replies;
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
}

void run_killer_client(const Options& opt, int client, ClientResult& out) {
  ClientSock sock;
  if (!connect_client(sock, opt)) {
    ++out.failures;
    return;
  }
  // A full header promising 64 payload bytes, then half of them, then an
  // abortive close (SO_LINGER 0 turns close() into RST where the transport
  // supports it) — the mid-frame kill attack.
  const std::string payload = request_payload(client, 0);
  const std::string frame = encode_frame(payload + std::string(64, ' '));
  const std::size_t partial = frame.size() / 2;
  ++out.sent;
  if (!send_all(sock.fd, frame.data(), partial)) {
    ++out.failures;
    return;
  }
  struct linger hard = {1, 0};
  ::setsockopt(sock.fd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
  ++out.replies;  // the "reply" here is the server surviving; probed later
}

void run_garbage_client(const Options& opt, int client, ClientResult& out) {
  ClientSock sock;
  if (!connect_client(sock, opt)) {
    ++out.failures;
    return;
  }
  // 256 seeded pseudo-random bytes that cannot start with the frame magic.
  std::string junk(256, '\0');
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < junk.size(); ++i) {
    if (i % 8 == 0)
      word = dsmt::core::splitmix64(opt.seed ^
                                    (static_cast<std::uint64_t>(client) << 32) ^
                                    (i / 8));
    junk[i] = static_cast<char>((word >> ((i % 8) * 8)) & 0xff);
  }
  if (static_cast<unsigned char>(junk[0]) == 'D') junk[0] = '\x7f';
  ++out.sent;
  if (!send_all(sock.fd, junk.data(), junk.size())) {
    ++out.failures;
    return;
  }
  // The server owes exactly one well-formed kInvalidInput frame, then EOF.
  std::string payload;
  if (!recv_frame(sock.fd, payload)) {
    ++out.failures;
    return;
  }
  try {
    const dsmt::report::Json doc = dsmt::report::Json::parse(payload);
    const dsmt::report::Json* status = doc.find("status");
    if (status == nullptr || !status->is_string() ||
        status->as_string() != "invalid-input") {
      ++out.failures;
      return;
    }
  } catch (const std::exception&) {
    ++out.failures;
    return;
  }
  char extra;
  const long n = ::recv(sock.fd, &extra, 1, 0);  // EOF expected
  if (n != 0) {
    ++out.failures;
    return;
  }
  ++out.replies;
}

/// One of four fixed poison identities. The id carries the "poison"
/// substring the server's --crash-faults arm keys on, and the parameters
/// are fixed per identity so every client hits the same canonical request
/// hash — two crashes anywhere in the storm quarantine it fleet-wide.
std::string poison_payload(int which) {
  dsmt::service::Request req;
  req.id = "poison-" + std::to_string(which % 4);
  req.kind = dsmt::service::RequestKind::kSelfConsistent;
  req.duty_cycle = 0.30;
  return dsmt::service::request_to_json(req).dump(-1);
}

/// The crash-storm client: a deterministic interleave of poison and clean
/// requests, each owed exactly one well-formed reply. Clean (survivor)
/// lanes must answer "ok" and feed the main latency percentiles; poison
/// lanes may answer anything well-formed ("worker-crashed" while crashing,
/// "ok" once quarantined onto the analytic rung) and are timed separately.
void run_crash_storm_client(const Options& opt, int client,
                            ClientResult& out) {
  ClientSock sock;
  if (!connect_client(sock, opt)) {
    ++out.failures;
    return;
  }
  const int stride =
      opt.poison_percent >= 100
          ? 1
          : (opt.poison_percent > 0 ? 100 / opt.poison_percent
                                    : opt.requests + 1);
  std::string payload;
  for (int i = 0; i < opt.requests; ++i) {
    const bool poison = stride <= opt.requests && i % stride == 0;
    const std::string expect_id =
        poison ? "poison-" + std::to_string((i / stride) % 4)
               : "load-" + std::to_string(client) + "-" + std::to_string(i);
    const std::string frame = encode_frame(
        poison ? poison_payload((i / stride) % 4)
               : request_payload(client, i));
    const auto start = std::chrono::steady_clock::now();
    ++out.sent;
    if (poison) ++out.poison_sent;
    if (!send_all(sock.fd, frame.data(), frame.size()) ||
        !recv_frame(sock.fd, payload)) {
      ++out.failures;
      return;
    }
    const auto stop = std::chrono::steady_clock::now();
    std::string status;
    try {
      const dsmt::report::Json doc = dsmt::report::Json::parse(payload);
      const dsmt::report::Json* id = doc.find("id");
      const dsmt::report::Json* status_node = doc.find("status");
      if (id == nullptr || !id->is_string() ||
          id->as_string() != expect_id || status_node == nullptr ||
          !status_node->is_string()) {
        ++out.failures;
        return;
      }
      status = status_node->as_string();
    } catch (const std::exception&) {
      ++out.failures;
      return;
    }
    ++out.replies;
    if (status == "ok")
      ++out.status_ok;
    else if (status == "worker-crashed")
      ++out.status_crashed;
    else
      ++out.status_other;
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (poison) {
      out.poison_latency_ms.push_back(ms);
    } else {
      out.latency_ms.push_back(ms);
      // A clean lane that does not answer "ok" means crash containment
      // leaked into innocent traffic — the one thing the storm exists to
      // disprove.
      if (status != "ok") ++out.failures;
    }
  }
}

/// The cache-storm request stream: the SAME ids and parameters for every
/// client, so C clients asking request i concurrently stampede one cache
/// key. Ids are client-independent on purpose — replies can then be
/// compared byte-for-byte across clients.
std::string storm_payload(int index) {
  dsmt::service::Request req;
  req.id = "storm-" + std::to_string(index);
  req.kind = dsmt::service::RequestKind::kSelfConsistent;
  req.duty_cycle = 0.05 + 0.01 * static_cast<double>(index % 40);
  return dsmt::service::request_to_json(req).dump(-1);
}

/// The cache-storm client: every reply must be well-formed and "ok", and
/// the raw payload bytes are kept so main() can assert that client k's
/// reply i equals client 0's reply i — the wire-level proof that cache
/// hits, coalesced hits, and cold solves are indistinguishable.
void run_cache_storm_client(const Options& opt, int client,
                            ClientResult& out) {
  ClientSock sock;
  if (!connect_client(sock, opt)) {
    ++out.failures;
    return;
  }
  (void)client;
  std::string payload;
  for (int i = 0; i < opt.requests; ++i) {
    const std::string frame = encode_frame(storm_payload(i));
    const auto start = std::chrono::steady_clock::now();
    ++out.sent;
    if (!send_all(sock.fd, frame.data(), frame.size()) ||
        !recv_frame(sock.fd, payload)) {
      ++out.failures;
      return;
    }
    const auto stop = std::chrono::steady_clock::now();
    try {
      const dsmt::report::Json doc = dsmt::report::Json::parse(payload);
      const dsmt::report::Json* id = doc.find("id");
      const dsmt::report::Json* status = doc.find("status");
      if (id == nullptr || !id->is_string() ||
          id->as_string() != "storm-" + std::to_string(i) ||
          status == nullptr || !status->is_string() ||
          status->as_string() != "ok") {
        ++out.failures;
        return;
      }
    } catch (const std::exception&) {
      ++out.failures;
      return;
    }
    ++out.replies;
    out.reply_bytes.push_back(payload);
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
}

/// Post-attack health check: one framed request must still round-trip.
bool probe(const Options& opt) {
  ClientSock sock;
  if (!connect_client(sock, opt)) return false;
  const std::string frame = encode_frame(request_payload(9999, 0));
  std::string payload;
  if (!send_all(sock.fd, frame.data(), frame.size()) ||
      !recv_frame(sock.fd, payload))
    return false;
  try {
    const dsmt::report::Json doc = dsmt::report::Json::parse(payload);
    const dsmt::report::Json* status = doc.find("status");
    return status != nullptr && status->is_string();
  } catch (const std::exception&) {
    return false;
  }
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = lo + 1 < sorted.size() ? lo + 1 : lo;
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        print_error(std::string(flag) + " requires a value");
        usage(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--connect") opt.socket_path = value("--connect");
    else if (arg == "--tcp") {
      opt.use_tcp = true;
      opt.port = static_cast<std::uint16_t>(std::stoi(value("--tcp")));
    } else if (arg == "--mode") opt.mode = value("--mode");
    else if (arg == "--crash-storm") opt.mode = "crash-storm";
    else if (arg == "--clients") opt.clients = std::stoi(value("--clients"));
    else if (arg == "--requests") opt.requests = std::stoi(value("--requests"));
    else if (arg == "--poison-percent")
      opt.poison_percent = std::stoi(value("--poison-percent"));
    else if (arg == "--seed") opt.seed = std::stoull(value("--seed"));
    else if (arg == "--json") opt.json = true;
    else {
      print_error("unknown argument: " + arg);
      usage(2);
    }
  }
  if (opt.mode != "normal" && opt.mode != "kill-midframe" &&
      opt.mode != "garbage" && opt.mode != "crash-storm" &&
      opt.mode != "cache-storm") {
    print_error("unknown mode: " + opt.mode);
    usage(2);
  }
  if ((opt.socket_path.empty() && !opt.use_tcp) ||
      (!opt.socket_path.empty() && opt.use_tcp)) {
    print_error("exactly one of --connect or --tcp is required");
    usage(2);
  }
  if (opt.clients < 1 || opt.requests < 1) {
    print_error("--clients and --requests must be >= 1");
    usage(2);
  }
  if (opt.poison_percent < 1 || opt.poison_percent > 100) {
    print_error("--poison-percent must be in [1, 100]");
    usage(2);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<ClientResult> results(static_cast<std::size_t>(opt.clients));
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (int c = 0; c < opt.clients; ++c) {
    ClientResult& slot = results[static_cast<std::size_t>(c)];
    threads.emplace_back([&opt, c, &slot] {
      if (opt.mode == "normal") run_normal_client(opt, c, slot);
      else if (opt.mode == "kill-midframe") run_killer_client(opt, c, slot);
      else if (opt.mode == "crash-storm") run_crash_storm_client(opt, c, slot);
      else if (opt.mode == "cache-storm") run_cache_storm_client(opt, c, slot);
      else run_garbage_client(opt, c, slot);
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  ClientResult total;
  std::vector<double> latencies;
  std::vector<double> poison_latencies;
  for (const ClientResult& r : results) {
    total.sent += r.sent;
    total.replies += r.replies;
    total.failures += r.failures;
    total.poison_sent += r.poison_sent;
    total.status_ok += r.status_ok;
    total.status_crashed += r.status_crashed;
    total.status_other += r.status_other;
    latencies.insert(latencies.end(), r.latency_ms.begin(),
                     r.latency_ms.end());
    poison_latencies.insert(poison_latencies.end(),
                            r.poison_latency_ms.begin(),
                            r.poison_latency_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(poison_latencies.begin(), poison_latencies.end());

  // cache-storm: reply i must be byte-identical across every client — the
  // wire-level proof that hits, coalesced hits, and cold solves are
  // indistinguishable.
  int byte_mismatches = 0;
  if (opt.mode == "cache-storm" && !results.empty()) {
    const std::vector<std::string>& reference = results[0].reply_bytes;
    for (std::size_t c = 1; c < results.size(); ++c) {
      const std::vector<std::string>& mine = results[c].reply_bytes;
      const std::size_t n = std::min(reference.size(), mine.size());
      for (std::size_t i = 0; i < n; ++i)
        if (mine[i] != reference[i]) ++byte_mismatches;
    }
  }

  // Attack modes must leave the server serving; normal mode must get every
  // reply it asked for. The crash storm demands both: every request
  // (poison included) answered exactly once, clean lanes "ok", and the
  // server still serving afterwards. The cache storm additionally demands
  // cross-client byte identity.
  bool healthy = total.failures == 0;
  if (opt.mode != "normal") healthy = healthy && probe(opt);
  if (opt.mode == "crash-storm")
    healthy = healthy && total.replies == total.sent;
  if (opt.mode == "cache-storm")
    healthy = healthy && total.replies == total.sent && byte_mismatches == 0;

  using dsmt::report::Json;
  Json latency = Json::object();
  latency.set("p50_ms", Json::number(percentile(latencies, 0.50)))
      .set("p90_ms", Json::number(percentile(latencies, 0.90)))
      .set("p99_ms", Json::number(percentile(latencies, 0.99)))
      .set("max_ms", Json::number(latencies.empty() ? 0.0 : latencies.back()))
      .set("samples", Json::integer(static_cast<long long>(latencies.size())));
  Json root = Json::object();
  root.set("tool", Json::string("dsmt_loadgen"))
      .set("mode", Json::string(opt.mode))
      .set("clients", Json::integer(opt.clients))
      .set("requests_per_client", Json::integer(opt.requests))
      .set("sent", Json::integer(total.sent))
      .set("replies", Json::integer(total.replies))
      .set("failures", Json::integer(total.failures))
      .set("wall_s", Json::number(wall_s))
      .set("rps", Json::number(wall_s > 0.0
                                   ? static_cast<double>(total.replies) / wall_s
                                   : 0.0))
      .set("latency", std::move(latency))
      .set("healthy", Json::boolean(healthy));
  if (opt.mode == "crash-storm") {
    Json statuses = Json::object();
    statuses.set("ok", Json::integer(total.status_ok))
        .set("worker_crashed", Json::integer(total.status_crashed))
        .set("other", Json::integer(total.status_other));
    Json poison = Json::object();
    poison.set("p50_ms", Json::number(percentile(poison_latencies, 0.50)))
        .set("p99_ms", Json::number(percentile(poison_latencies, 0.99)))
        .set("samples",
             Json::integer(static_cast<long long>(poison_latencies.size())));
    root.set("poison_percent", Json::integer(opt.poison_percent))
        .set("poison_sent", Json::integer(total.poison_sent))
        .set("statuses", std::move(statuses))
        .set("poison_latency", std::move(poison));
  }
  if (opt.mode == "cache-storm") {
    root.set("byte_mismatches", Json::integer(byte_mismatches))
        .set("byte_identical", Json::boolean(byte_mismatches == 0));
  }

  if (opt.json) {
    std::printf("%s\n", root.dump(2).c_str());
  } else if (opt.mode == "cache-storm") {
    std::printf(
        "mode=%s clients=%d sent=%d replies=%d failures=%d mismatches=%d "
        "wall=%.3fs p50=%.2fms p99=%.2fms healthy=%s\n",
        opt.mode.c_str(), opt.clients, total.sent, total.replies,
        total.failures, byte_mismatches, wall_s, percentile(latencies, 0.50),
        percentile(latencies, 0.99), healthy ? "yes" : "no");
  } else if (opt.mode == "crash-storm") {
    std::printf(
        "mode=%s clients=%d sent=%d (poison=%d) replies=%d failures=%d "
        "ok=%d crashed=%d other=%d wall=%.3fs survivor_p50=%.2fms "
        "survivor_p99=%.2fms healthy=%s\n",
        opt.mode.c_str(), opt.clients, total.sent, total.poison_sent,
        total.replies, total.failures, total.status_ok, total.status_crashed,
        total.status_other, wall_s, percentile(latencies, 0.50),
        percentile(latencies, 0.99), healthy ? "yes" : "no");
  } else {
    std::printf("mode=%s clients=%d sent=%d replies=%d failures=%d "
                "wall=%.3fs p50=%.2fms p99=%.2fms healthy=%s\n",
                opt.mode.c_str(), opt.clients, total.sent, total.replies,
                total.failures, wall_s, percentile(latencies, 0.50),
                percentile(latencies, 0.99), healthy ? "yes" : "no");
  }
  return healthy ? 0 : 1;
}
