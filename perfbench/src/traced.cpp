#include "traced.h"

#include <cstdio>
#include <memory>
#include <string>

#include "cache/entry.h"
#include "cache/solve_cache.h"
#include "generator.h"
#include "net/server.h"
#include "net/wire.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "report/json.h"
#include "selfconsistent/batch.h"
#include "selfconsistent/solver.h"
#include "service/server.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using dsmt::service::Request;
using dsmt::service::RequestKind;

void SpanIndex::add(const std::vector<trace::Span>& spans) {
  for (const trace::Span& s : spans) {
    const double us = static_cast<double>(s.duration_ns()) * 1e-3;
    this->us[s.name].push_back(us);
    by_request[s.name][s.request] += us;
  }
}

double SpanIndex::median_us(trace::Name name) const {
  return median(us[name]);
}

std::vector<double> net_self_us(const PhaseResult& phase,
                                const SpanIndex& host) {
  const auto& handler = host.by_request[trace::kFrameHandler];
  std::vector<double> out;
  for (std::size_t k = 0; k < phase.rtt_us.size(); ++k) {
    const auto h = handler.find(phase.ids[k]);
    if (h != handler.end()) out.push_back(phase.rtt_us[k] - h->second);
  }
  return out;
}

void append_spans(std::vector<trace::Span>& to,
                  const std::vector<trace::Span>& more) {
  const auto offset = static_cast<std::int32_t>(to.size());
  for (trace::Span s : more) {
    if (s.parent >= 0) s.parent += offset;
    to.push_back(s);
  }
}

ReplayResult replay_layers(const std::vector<Request>& sample,
                           dsmt::supervise::WorkerPool* pool) {
  namespace report = dsmt::report;
  namespace service = dsmt::service;
  ReplayResult out;
  // Moves the spans recorded so far into the result.
  const auto take = [&out] {
    const std::vector<trace::Span> spans = trace::collect();
    append_spans(out.raw, spans);
    out.spans.add(spans);
    return spans;
  };
  trace::set_enabled(true);
  (void)trace::collect();  // spans of earlier activity are not the replay's
  service::ServerConfig config;
  config.publish_signoff = false;
  service::Server server(config);

  for (std::size_t i = 0; i < sample.size(); ++i) {
    const std::uint64_t id =
        static_cast<std::uint64_t>(index_of_id(sample[i].id));
    const std::string payload = payload_of(sample[i]);
    trace::Scope root(trace::kReplay, id);
    report::Json doc;
    {
      trace::Scope s(trace::kJsonParse, id);
      doc = report::Json::parse(payload);
    }
    Request request;
    {
      trace::Scope s(trace::kRequestDecode, id);
      request = service::request_from_json(doc);
    }
    service::LadderProblem ladder;
    {
      trace::Scope s(request.kind == RequestKind::kTableCell
                         ? trace::kBuildProblemTable
                         : trace::kBuildProblemWire,
                     id);
      ladder = service::build_problem(request);
    }
    {
      trace::Scope s(trace::kSolveOne, id);
      const dsmt::selfconsistent::Solution sol =
          dsmt::selfconsistent::solve_one(ladder.full);
      out.iterations.push_back(static_cast<double>(sol.diag.iterations));
    }
    {
      trace::Scope s(trace::kSolveScalar, id);
      (void)dsmt::selfconsistent::solve(ladder.full);
    }
    {
      trace::Scope s(trace::kThreadCount, id);
      (void)dsmt::parallel::thread_count();
    }
    {
      trace::Scope s(trace::kCanonicalKey, id);
      (void)dsmt::cache::canonical_key(request);
    }
    // The in-process reply sequence, exactly as net::Server runs it.
    service::Response resp;
    {
      trace::Scope s(trace::kServiceHandle, id);
      resp = server.handle(request, i);
    }
    report::Json reply;
    {
      trace::Scope s(trace::kResponseEncode, id);
      reply = service::response_to_json(resp);
    }
    std::string text;
    {
      trace::Scope s(trace::kJsonDump, id);
      text = reply.dump(-1);
    }
    {
      trace::Scope s(trace::kEncodeFrame, id);
      (void)dsmt::net::encode_frame(text);
    }
  }
  if (pool != nullptr) {
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const std::uint64_t id =
          static_cast<std::uint64_t>(index_of_id(sample[i].id));
      trace::Scope s(trace::kSuperviseExecute, id);
      (void)pool->execute(sample[i], i);
    }
  }
  for (const trace::Span& s : take()) {
    if (s.name == trace::kServiceHandle || s.name == trace::kResponseEncode ||
        s.name == trace::kJsonDump || s.name == trace::kEncodeFrame)
      out.inproc_us[s.request] += static_cast<double>(s.duration_ns()) * 1e-3;
  }

  // Solve cache, memory-only: the first pass gives the stream's own hit
  // ratio, the second pass (every key now resident) times hits.
  {
    service::ServerConfig cached = config;
    cached.solve_cache = std::make_shared<dsmt::cache::SolveCache>(
        dsmt::cache::SolveCacheConfig{});
    service::Server cached_server(cached);
    for (std::size_t i = 0; i < sample.size(); ++i)
      (void)cached_server.handle(sample[i], i);
    const dsmt::cache::CacheStats first = cached.solve_cache->stats();
    out.cache_hits = first.hits;
    out.cache_misses = first.misses;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      trace::Scope s(trace::kCacheHandle,
                     static_cast<std::uint64_t>(index_of_id(sample[i].id)));
      (void)cached_server.handle(sample[i], i);
    }
  }
  take();

  // Fan-out: handle() over the sample through parallel_for, the way
  // submit_batch serves a burst. Busy time is the sum of the item spans.
  {
    service::Server fan_server(config);
    const std::size_t threads = dsmt::parallel::thread_count();
    const std::int64_t start = now_ns();
    {
      trace::Scope s(trace::kFanout, 0);
      dsmt::parallel::parallel_for(sample.size(), [&](std::size_t i) {
        const auto id = static_cast<std::uint64_t>(index_of_id(sample[i].id));
        trace::Scope item(trace::kBatchItem, id);
        (void)fan_server.handle(sample[i], i);
      });
    }
    const double wall_us = static_cast<double>(now_ns() - start) * 1e-3;
    double busy_us = 0.0;
    for (const trace::Span& s : take())
      if (s.name == trace::kBatchItem)
        busy_us += static_cast<double>(s.duration_ns()) * 1e-3;
    out.fanout_efficiency =
        busy_us / (static_cast<double>(threads) * wall_us);
  }
  return out;
}

double json_at(const dsmt::report::Json& doc,
               std::initializer_list<const char*> path) {
  const dsmt::report::Json* node = &doc;
  for (const char* key : path) {
    node = node->find(key);
    if (node == nullptr) return 0.0;
  }
  return node->is_number() ? node->as_number() : 0.0;
}

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const SpanIndex& replay = in.replay.spans;
  const auto source = [&](trace::Name name) -> const SpanIndex& {
    return in.path.us[name].empty() ? replay : in.path;
  };
  const auto med = [&](trace::Name name) {
    return source(name).median_us(name);
  };
  const std::vector<double>& handle =
      source(trace::kServiceHandle).us[trace::kServiceHandle];
  // The worker hop: execute() minus the in-process handle + encode + dump
  // + frame of the same request.
  std::vector<double> execute;
  std::vector<double> hop;
  for (const auto& [id, us] : replay.by_request[trace::kSuperviseExecute]) {
    execute.push_back(us);
    const auto inproc = in.replay.inproc_us.find(id);
    if (inproc != in.replay.inproc_us.end()) hop.push_back(us - inproc->second);
  }
  const double lookups =
      static_cast<double>(in.replay.cache_hits + in.replay.cache_misses);
  const dsmt::report::Json& rep = in.report;
  return {
      {"net.self_us", median(in.net_self_us), "us"},
      {"report.json_parse_us", med(trace::kJsonParse), "us"},
      {"report.json_dump_us", med(trace::kJsonDump), "us"},
      {"report.reply_bytes", in.reply_bytes, "bytes"},
      {"service.request_decode_us", med(trace::kRequestDecode), "us"},
      {"service.response_encode_us", med(trace::kResponseEncode), "us"},
      {"service.handle_us.p50", quantile(handle, 0.5), "us"},
      {"service.handle_us.p99", quantile(handle, 0.99), "us"},
      {"service.build_problem_us.wire", med(trace::kBuildProblemWire), "us"},
      {"service.build_problem_us.table_cell", med(trace::kBuildProblemTable),
       "us"},
      {"service.reference_families",
       json_at(rep, {"service", "cache", "reference", "families"}), "count"},
      {"service.reference_points",
       json_at(rep, {"service", "cache", "reference", "points"}), "count"},
      {"service.ok_full", json_at(rep, {"service", "outcomes", "ok_full"}),
       "count"},
      {"service.degraded",
       json_at(rep, {"service", "outcomes", "ok_interpolated"}) +
           json_at(rep, {"service", "outcomes", "ok_analytic"}),
       "count"},
      {"service.shed", json_at(rep, {"service", "queue", "shed"}), "count"},
      {"service.failed", json_at(rep, {"service", "outcomes", "failed"}),
       "count"},
      {"net.rejected_inflight", json_at(rep, {"net", "rejected_inflight"}),
       "count"},
      {"selfconsistent.solve_one_us", med(trace::kSolveOne), "us"},
      {"selfconsistent.solve_scalar_us", med(trace::kSolveScalar), "us"},
      {"selfconsistent.iterations_mean", mean(in.replay.iterations), "count"},
      {"parallel.thread_count_us", med(trace::kThreadCount), "us"},
      {"parallel.fanout_efficiency",
       in.fanout_efficiency > 0.0 ? in.fanout_efficiency
                                  : in.replay.fanout_efficiency,
       "1"},
      {"supervise.execute_us", median(execute), "us"},
      {"supervise.hop_us", median(hop), "us"},
      {"supervise.restarts", json_at(rep, {"supervise", "stats", "restarts"}),
       "count"},
      {"cache.canonical_key_us", med(trace::kCanonicalKey), "us"},
      {"cache.hit_us", med(trace::kCacheHandle), "us"},
      {"cache.hit_ratio",
       lookups > 0.0 ? static_cast<double>(in.replay.cache_hits) / lookups
                     : 0.0,
       "1"},
      {"trace.overhead_pct", in.overhead_pct, "%"},
      {"generator.repeat_share", in.repeat_share, "1"},
      {"generator.lag_p99_us", in.lag_p99_us, "us"},
  };
}

void write_trace(const std::string& prefix,
                 const std::vector<trace::Span>& path,
                 const std::vector<trace::Span>& replay) {
  for (const auto& [suffix, spans] :
       {std::pair{".path.tsv", &path}, std::pair{".replay.tsv", &replay}}) {
    const std::string file = prefix + suffix;
    if (trace::write_tsv(file, *spans))
      std::fprintf(stderr, "perfbench: %zu spans in %s\n", spans->size(),
                   file.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", file.c_str());
  }
}

namespace {

int host_usage() {
  std::fprintf(stderr, "usage: perfbench host --listen SOCKET --spans FILE\n");
  return 2;
}

}  // namespace

int host_main(int argc, char** argv) {
  namespace net = dsmt::net;
  namespace report = dsmt::report;
  namespace service = dsmt::service;
  std::string listen;
  std::string spans_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--listen") {
      listen = argv[i + 1];
    } else if (arg == "--spans") {
      spans_path = argv[i + 1];
    } else {
      return host_usage();
    }
  }
  if (argc % 2 != 0 || listen.empty() || spans_path.empty())
    return host_usage();

  trace::set_enabled(true);
  // The configuration dsmt_serve builds from its defaults.
  net::NetConfig config;
  config.endpoint.kind = net::Endpoint::Kind::kUnix;
  config.endpoint.path = listen;
  config.request_deadline_ns = config.service.deadline_ns;
  // The default reply sequence of net::Server, each call under a span.
  net::Server* server_ptr = nullptr;
  config.frame_handler = [&server_ptr](const Request& request,
                                       std::uint64_t seq) {
    const auto id = static_cast<std::uint64_t>(index_of_id(request.id));
    trace::Scope root(trace::kFrameHandler, id);
    service::Response response;
    {
      trace::Scope s(trace::kServiceHandle, id);
      response = server_ptr->service().handle(request,
                                              static_cast<std::size_t>(seq));
    }
    report::Json doc;
    {
      trace::Scope s(trace::kResponseEncode, id);
      doc = service::response_to_json(response);
    }
    std::string text;
    {
      trace::Scope s(trace::kJsonDump, id);
      text = doc.dump(-1);
    }
    trace::Scope s(trace::kEncodeFrame, id);
    return net::encode_frame(text);
  };

  try {
    net::Server server(config);
    server_ptr = &server;
    server.open();
    server.install_signal_drain();
    const net::NetStats stats = server.run();
    if (!trace::write_file(spans_path, trace::collect())) {
      std::fprintf(stderr, "perfbench host: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
    report::Json net_json = report::Json::object();
    net_json
        .set("replies_sent",
             report::Json::integer(static_cast<long long>(stats.replies_sent)))
        .set("rejected_inflight",
             report::Json::integer(
                 static_cast<long long>(stats.rejected_inflight)));
    report::Json root = report::Json::object();
    root.set("net", std::move(net_json));
    root.set("service", server.service().service_json());
    std::printf("%s\n", root.dump(-1).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench host: %s\n", e.what());
    return 2;
  }
  return 0;
}

}  // namespace perfbench
