// batch_chip and batch_unique: one chip-sized burst through
// `dsmt_serve --batch`. batch_chip is one chip's per-wire queries, so
// almost every key repeats; batch_unique draws it from the unique mix, so
// no key repeats and every full solve inserts a ReferenceCache family.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "generator.h"
#include "open_loop.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "report/json.h"
#include "server_proc.h"
#include "service/server.h"
#include "trace.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dsmt::service::Request;

/// Requests in the burst, and in the doubled burst of the high-load
/// figure. --queue is set to the burst: the default queue of 256 would shed
/// almost all of a burst this size.
constexpr std::size_t kBurst = 20000;
constexpr std::size_t kHighBurst = 2 * kBurst;
constexpr int kSetupRepeats = 21;

struct Burst {
  std::vector<Request> requests;
  Reference ref;                       ///< reply hash per request
  std::vector<std::string> reference;  ///< reply payload per request
  std::string path;                    ///< the batch document on disk
  std::string one_path;                ///< a 1-request batch (setup)
  std::string expected;  ///< the exact "responses" prefix of the output
  StreamStats stats;
};

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// The first `size` requests of the workload's stream for the seed, written
/// as a batch document, with the reference reply of each.
Burst make_burst(const RunOptions& o, std::size_t size) {
  Burst b;
  RequestStream stream(o.workload == "batch_unique" ? Mix::kUnique : Mix::kChip,
                       o.seed);
  b.requests.reserve(size);
  std::string doc = "[";
  for (std::size_t i = 0; i < size; ++i) {
    b.requests.push_back(stream.next());
    b.stats.add(b.requests.back());
    if (i > 0) doc += ',';
    doc += payload_of(b.requests.back());
  }
  doc += "]";
  const std::string tag =
      std::to_string(::getpid()) + "-" + std::to_string(size);
  b.path = o.work_dir + "/batch-" + tag + ".json";
  b.one_path = o.work_dir + "/batch-one-" + tag + ".json";
  write_text(b.path, doc);
  write_text(b.one_path, "[" + payload_of(b.requests.front()) + "]");
  b.ref = compute_reference(b.requests, o.threads, &b.reference);
  for (std::size_t i = 0; i < size; ++i)
    if (b.ref.ok_full[i] == 0)
      throw std::runtime_error("reference reply " + b.requests[i].id +
                               " is not ok at degradation level 0");
  b.expected = "{\"responses\":[";
  for (std::size_t i = 0; i < size; ++i) {
    if (i > 0) b.expected += ',';
    b.expected += b.reference[i];
  }
  b.expected += "],\"service\":";
  return b;
}

/// Replies of a batch output that differ from the reference (all of them
/// when the output does not parse).
std::size_t count_wrong(const std::string& output,
                        const std::vector<std::string>& reference) {
  try {
    const dsmt::report::Json doc = dsmt::report::Json::parse(output);
    const dsmt::report::Json* responses = doc.find("responses");
    if (responses == nullptr || responses->size() != reference.size())
      return reference.size();
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < reference.size(); ++i)
      if (responses->at(i).dump(-1) != reference[i]) ++wrong;
    return wrong;
  } catch (const std::exception&) {
    return reference.size();
  }
}

struct BatchRun {
  double seconds = 0.0;
  std::string output;
};

BatchRun serve_batch(const RunOptions& o, const std::string& path,
                     std::size_t queue) {
  ServerProcess proc;
  proc.spawn({o.serve_bin, "--batch", path, "--queue", std::to_string(queue),
              "--indent", "-1"});
  BatchRun run;
  int status = 0;
  run.output = proc.finish(0, &status);
  run.seconds = static_cast<double>(now_ns() - proc.spawned_ns()) * 1e-9;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("dsmt_serve --batch exited abnormally");
  return run;
}

/// rss_mb: a `dsmt_serve --listen` with default settings answers the
/// burst over the unix socket, as fast as the connection windows allow;
/// its peak RSS is read from /proc before it drains at SIGTERM. A socket server
/// holds no burst document, so its memory is its baseline plus what it
/// keeps between requests: the ReferenceCache. Adds the wrong or missing
/// replies to `wrong`; `ping_reply` gets the server's ping reply.
double served_rss_mb(const RunOptions& o, const Burst& b, std::size_t* wrong,
                     std::string* ping_reply) {
  const std::string socket =
      o.work_dir + "/rss-" + std::to_string(::getpid()) + ".sock";
  ::unlink(socket.c_str());
  ServerProcess server;
  server.spawn({o.serve_bin, "--listen", socket});
  if (ping(socket).empty()) throw std::runtime_error("dsmt_serve never answered");
  const PhaseResult r =
      run_phase(socket, o.threads, b.requests,
                std::vector<std::int64_t>(b.requests.size(), 0), b.ref);
  *wrong += r.mismatched + r.unanswered;
  *ping_reply = ping(socket);
  const double rss_mb = peak_rss_mb(server.pid());
  int status = 0;
  (void)server.finish(SIGTERM, &status);
  ::unlink(socket.c_str());
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("dsmt_serve --listen did not drain cleanly");
  if (rss_mb <= 0.0) throw std::runtime_error("cannot read the server's RSS");
  return rss_mb;
}

/// Verifies one burst output; returns the number of wrong replies.
std::size_t verify_burst(const Burst& b, const std::string& output) {
  if (output.compare(0, b.expected.size(), b.expected) == 0) return 0;
  return std::max<std::size_t>(1, count_wrong(output, b.reference));
}

dsmt::report::Json service_section(const std::string& output) {
  dsmt::report::Json root = dsmt::report::Json::object();
  const dsmt::report::Json doc = dsmt::report::Json::parse(output);
  if (const dsmt::report::Json* service = doc.find("service"))
    root.set("service", *service);
  return root;
}

/// The batch path of dsmt_serve replayed in process: parse the document,
/// decode each request, serve the burst by handle() through parallel_for
/// as submit_batch does, encode each response and dump the document.
/// Returns the wall time [s]; with tracing on, every call is a span.
double batch_replica(const std::string& text, std::size_t* wrong,
                     const std::vector<std::string>& reference) {
  namespace report = dsmt::report;
  namespace service = dsmt::service;
  const std::int64_t start = now_ns();
  report::Json doc;
  {
    trace::Scope s(trace::kJsonParse, 0);
    doc = report::Json::parse(text);
  }
  std::vector<Request> batch(doc.size());
  for (std::size_t i = 0; i < doc.size(); ++i) {
    trace::Scope s(trace::kRequestDecode, i);
    batch[i] = service::request_from_json(doc.at(i));
  }
  service::ServerConfig config;
  config.publish_signoff = false;
  config.queue_capacity = batch.size();
  service::Server server(config);
  std::vector<service::Response> responses(batch.size());
  {
    trace::Scope s(trace::kFanout, 0);
    dsmt::parallel::parallel_for(batch.size(), [&](std::size_t i) {
      trace::Scope item(trace::kBatchItem, i);
      trace::Scope handle(trace::kServiceHandle, i);
      responses[i] = server.handle(batch[i], i);
    });
  }
  report::Json list = report::Json::array();
  for (std::size_t i = 0; i < responses.size(); ++i) {
    trace::Scope s(trace::kResponseEncode, i);
    list.push(service::response_to_json(responses[i]));
  }
  report::Json root = report::Json::object();
  root.set("responses", std::move(list));
  root.set("service", server.service_json());
  std::string out;
  {
    trace::Scope s(trace::kJsonDump, 0);
    out = root.dump(-1);
  }
  const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
  *wrong += count_wrong(out, reference);
  return seconds;
}

RunResult run_batch_traced(const RunOptions& o, const Burst& b) {
  RunResult result;
  result.attempted = 0;
  // The untraced program's own counters, from one dsmt_serve run.
  const BatchRun plain = serve_batch(o, b.path, kBurst);
  const std::size_t wrong_plain = verify_burst(b, plain.output);
  result.attempted += kBurst;

  std::string text;
  {
    std::ifstream in(b.path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // Replica runs alternate untraced and traced: the overhead is the
  // difference of their medians, and the traced runs' spans give the
  // per-layer figures.
  std::size_t wrong = wrong_plain;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<trace::Span> spans;
  for (int i = 0; i < 3; ++i) {
    trace::set_enabled(false);
    untraced.push_back(batch_replica(text, &wrong, b.reference));
    trace::set_enabled(true);
    traced.push_back(batch_replica(text, &wrong, b.reference));
    append_spans(spans, trace::collect());
  }
  result.attempted += 6 * kBurst;

  LayerInputs in;
  in.path.add(spans);
  // Document-level parse and dump, per request of the burst.
  const double n = static_cast<double>(kBurst);
  in.path.us[trace::kJsonParse] = {median(in.path.us[trace::kJsonParse]) / n};
  in.path.us[trace::kJsonDump] = {median(in.path.us[trace::kJsonDump]) / n};
  double busy_us = 0.0;
  for (const double us : in.path.us[trace::kBatchItem]) busy_us += us;
  double fanout_us = 0.0;
  for (const double us : in.path.us[trace::kFanout]) fanout_us += us;
  in.fanout_efficiency =
      busy_us /
      (static_cast<double>(dsmt::parallel::thread_count()) * fanout_us);
  double reply_bytes = 0.0;
  for (const std::string& r : b.reference)
    reply_bytes += static_cast<double>(r.size());
  in.reply_bytes = reply_bytes / n;

  // net does no work on this workload; its self time is still measured,
  // over a short unloaded socket run of the burst's first requests.
  const std::string socket =
      o.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const std::string spans_path =
      o.work_dir + "/spans-" + std::to_string(::getpid()) + ".bin";
  {
    const std::vector<Request> first(b.requests.begin(),
                                     b.requests.begin() + 1000);
    const Reference ref = compute_reference(first, o.threads);
    ServerProcess host;
    ::unlink(socket.c_str());
    host.spawn({o.self_bin, "host", "--listen", socket, "--spans", spans_path});
    if (ping(socket).empty()) throw std::runtime_error("host never answered");
    const PhaseResult r = run_phase(socket, o.threads, first,
                                    poisson_schedule(o.seed ^ 0x44, 2000.0,
                                                     first.size()),
                                    ref);
    result.attempted += r.attempted;
    wrong += r.mismatched + r.unanswered;
    in.lag_p99_us = quantile(r.lag_us, 0.99);
    const std::string host_report = host.finish(SIGTERM);
    ::unlink(socket.c_str());
    // The host's net section (in-flight refusals) joins the batch's
    // service section.
    in.report = service_section(plain.output);
    const std::size_t open = host_report.find('{');
    if (open != std::string::npos) {
      const dsmt::report::Json doc =
          dsmt::report::Json::parse(host_report.substr(open));
      if (const dsmt::report::Json* net = doc.find("net"))
        in.report.set("net", *net);
    }
    std::vector<trace::Span> host_spans;
    if (!trace::read_file(spans_path, host_spans))
      throw std::runtime_error("cannot read spans from the traced host");
    ::unlink(spans_path.c_str());
    SpanIndex host_index;
    host_index.add(host_spans);
    append_spans(spans, host_spans);
    in.net_self_us = net_self_us(r, host_index);
  }

  in.replay = replay_layers(
      std::vector<Request>(b.requests.begin(), b.requests.begin() + 2000),
      o.replay_pool);
  in.report.set("supervise", o.replay_pool->supervise_json());
  write_trace(trace_prefix(o), spans, in.replay.raw);
  in.overhead_pct = (median(traced) / median(untraced) - 1.0) * 100.0;
  in.repeat_share = b.stats.repeat_share();
  result.failed = wrong;
  result.correct = wrong == 0;
  result.metrics = layer_metrics(in);
  return result;
}

}  // namespace

RunResult run_batch(const RunOptions& o) {
  const Burst b = make_burst(o, kBurst);
  std::fprintf(stderr, "perfbench: %s\n", b.stats.describe().c_str());
  RunResult result;
  if (o.trace) {
    result = run_batch_traced(o, b);
  } else {
    // setup_s: a 1-request batch, spawn to its reply.
    std::vector<double> setups;
    const std::vector<std::string> first_ref(b.reference.begin(),
                                             b.reference.begin() + 1);
    for (int i = 0; i < kSetupRepeats; ++i) {
      const BatchRun one = serve_batch(o, b.one_path, 1);
      setups.push_back(one.seconds);
      result.attempted += 1;
      result.failed += count_wrong(one.output, first_ref);
    }
    // rss_mb: median of three socket servers.
    std::vector<double> rss;
    for (int i = 0; i < 3; ++i) {
      std::string ping_reply;
      rss.push_back(served_rss_mb(o, b, &result.failed, &ping_reply));
      result.attempted += kBurst;
      if (i == 0)
        std::fprintf(stderr, "perfbench: ping after the burst %s\n",
                     ping_reply.c_str());
    }
    // The burst and the doubled burst, alternating for the run's seconds.
    // Every reply of a burst arrives when the burst completes, so the
    // burst's wall time is each of its requests' latency.
    const Burst high = make_burst(o, kHighBurst);
    std::vector<double> seconds[2];
    std::uint64_t hashes[2] = {0, 0};
    const std::int64_t stop =
        now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
    for (int round = 0; round < 3 || now_ns() < stop; ++round) {
      for (int which = 0; which < 2; ++which) {
        const Burst& burst = which == 0 ? b : high;
        const BatchRun run =
            serve_batch(o, burst.path, burst.requests.size());
        result.attempted += burst.requests.size();
        // Verified in full the first time; later outputs must be the same
        // bytes.
        const std::uint64_t h = fnv1a(run.output);
        if (round == 0 || h != hashes[which])
          result.failed += verify_burst(burst, run.output);
        if (round == 0) {
          hashes[which] = h;
          if (which == 0)
            std::fprintf(stderr, "perfbench: service %s\n",
                         service_section(run.output).dump(-1).c_str());
        }
        seconds[which].push_back(run.seconds);
      }
    }
    const double t = median(seconds[0]);
    const double t_high = median(seconds[1]);
    for (int which = 0; which < 2; ++which) {
      std::fprintf(stderr, "perfbench: burst of %zu, wall times [s]:",
                   which == 0 ? kBurst : kHighBurst);
      for (const double s : seconds[which]) std::fprintf(stderr, " %.4f", s);
      std::fprintf(stderr, "\n");
    }
    std::fprintf(stderr,
                 "perfbench: %zu bursts of %zu in %.4f s, %zu of %zu in "
                 "%.4f s (medians)\n",
                 seconds[0].size(), kBurst, t, seconds[1].size(), kHighBurst,
                 t_high);
    const double rate = static_cast<double>(kBurst) / t;
    const double rate_high = static_cast<double>(kHighBurst) / t_high;
    result.correct = result.failed == 0;
    result.metrics = {
        {"p50_ms", t * 1e3, "ms"},
        {"p99_ms", t * 1e3, "ms"},
        {"p99_ms.high", t_high * 1e3, "ms"},
        {"max_rate_rps", rate_high, "1/s"},
        {"throughput_rps", rate, "1/s"},
        {"setup_s", median(setups), "s"},
        {"rss_mb", median(rss), "MB"},
    };
    ::unlink(high.path.c_str());
    ::unlink(high.one_path.c_str());
  }
  ::unlink(b.path.c_str());
  ::unlink(b.one_path.c_str());
  return result;
}

}  // namespace perfbench
