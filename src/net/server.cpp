#include "net/server.h"

#include <poll.h>
#include <signal.h>

#include <chrono>
#include <cstring>
#include <new>
#include <utility>

#include "core/status.h"
#include "parallel/thread_pool.h"
#include "report/json.h"
#include "service/request.h"

namespace dsmt::net {

namespace {

// ---- signal-drain plumbing ----------------------------------------------
// One server per process may hold the hook. The handler touches only an
// atomic fd and wake_selfpipe() (async-signal-safe, errno-preserving).

std::atomic<int> g_signal_wake_fd{-1};
std::atomic<bool> g_signal_drain{false};
std::atomic<std::atomic<bool>*> g_signal_target{nullptr};

extern "C" void drain_signal_handler(int /*signum*/) {
  g_signal_drain.store(true, std::memory_order_release);
  std::atomic<bool>* target = g_signal_target.load(std::memory_order_acquire);
  if (target != nullptr) target->store(true, std::memory_order_release);
  const int fd = g_signal_wake_fd.load(std::memory_order_acquire);
  if (fd >= 0) wake_selfpipe(fd);
}

struct sigaction g_old_term;
struct sigaction g_old_int;

/// Builds one well-formed error reply frame. Every rejection the front end
/// produces goes through here, so no failure mode is ever a silent drop.
std::string error_frame(const std::string& id, core::StatusCode status,
                        const std::string& message) {
  service::Response resp;
  resp.id = id;
  resp.status = status;
  resp.error = message;
  resp.diag.record("net/server", status, 0, 0.0, message);
  return encode_frame(service::dump_response(resp));
}

/// The request id of a parsed-but-possibly-malformed payload, best effort.
std::string probe_id(const report::Json& doc) {
  const report::Json* id = doc.find("id");
  return (id != nullptr && id->is_string()) ? id->as_string() : std::string{};
}

}  // namespace

Server::Server(NetConfig config)
    : config_(std::move(config)),
      service_(config_.service),
      shared_(std::make_shared<Shared>()) {
  if (!make_selfpipe(wake_read_, shared_->wake_fd)) {
    core::SolverDiag diag;
    const std::string what =
        std::string("net/server: self-pipe creation failed: ") +
        std::strerror(errno);
    diag.record("net/server", core::StatusCode::kInvalidInput, 0, 0.0, what);
    throw SolveError(what, diag);
  }
}

Server::~Server() {
  if (signal_hook_installed_) {
    g_signal_wake_fd.store(-1, std::memory_order_release);
    g_signal_target.store(nullptr, std::memory_order_release);
    ::sigaction(SIGTERM, &g_old_term, nullptr);
    ::sigaction(SIGINT, &g_old_int, nullptr);
  }
}

void Server::open() {
  if (!listener_.listening())
    listener_.open(config_.endpoint, config_.listen_backlog);
}

void Server::request_drain() {
  drain_requested_.store(true, std::memory_order_release);
  wake_selfpipe(shared_->wake_fd.get());
}

void Server::install_signal_drain() {
  g_signal_target.store(&drain_requested_, std::memory_order_release);
  g_signal_wake_fd.store(shared_->wake_fd.get(), std::memory_order_release);
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = drain_signal_handler;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, &g_old_term);
  ::sigaction(SIGINT, &action, &g_old_int);
  signal_hook_installed_ = true;
}

std::uint64_t Server::now_tick() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  const int tick_ms = config_.tick_ms > 0 ? config_.tick_ms : 1;
  return static_cast<std::uint64_t>(ms) / static_cast<std::uint64_t>(tick_ms);
}

NetStats Server::run() {
  open();
  epoch_ = std::chrono::steady_clock::now();
  try {
    std::vector<pollfd> pfds;
    std::vector<std::uint64_t> pfd_conn;  // conn id per pollfd (0 = control)
    std::vector<std::string> frames;

    for (;;) {
      if (!draining_ && drain_requested_.load(std::memory_order_acquire))
        begin_drain();

      apply_completions();

      const std::uint64_t tick = now_tick();
      reap(tick);

      // Opportunistic flush + sweep of finished/closed connections.
      for (auto it = connections_.begin(); it != connections_.end();) {
        Connection& conn = *it->second;
        if (!conn.closed() && conn.wants_write()) {
          if (conn.flush(tick) == WriteEvent::kReset) {
            ++stats_.resets;
            conn.close();
          }
        }
        if (!conn.closed() && conn.finished()) conn.close();
        if (conn.closed())
          it = connections_.erase(it);
        else
          ++it;
      }

      if (draining_) {
        const bool workers_quiet =
            shared_->outstanding.load(std::memory_order_acquire) == 0;
        if (connections_.empty() && workers_quiet) {
          MutexLock lock(shared_->mu);
          if (shared_->completions.empty()) {
            stats_.drained_clean = !forced_;
            break;
          }
        }
        if (!forced_ && tick >= drain_start_tick_ + config_.drain_timeout_ticks)
          force_drain();
      }

      // Build this iteration's poll set: self-pipe, listener, connections.
      pfds.clear();
      pfd_conn.clear();
      pfds.push_back({wake_read_.get(), POLLIN, 0});
      pfd_conn.push_back(0);
      if (listener_.listening()) {
        pfds.push_back({listener_.fd(), POLLIN, 0});
        pfd_conn.push_back(0);
      }
      const std::size_t first_conn = pfds.size();
      for (const auto& entry : connections_) {
        const Connection& conn = *entry.second;
        short events = 0;
        if (conn.reading()) events |= POLLIN;
        if (conn.wants_write()) events |= POLLOUT;
        pfds.push_back({conn.fd(), events, 0});
        pfd_conn.push_back(conn.id());
      }

      const int tick_ms = config_.tick_ms > 0 ? config_.tick_ms : 1;
      poll_wait(pfds.data(), pfds.size(), tick_ms);

      if ((pfds[0].revents & POLLIN) != 0) drain_selfpipe(wake_read_.get());
      if (listener_.listening() && first_conn == 2 &&
          (pfds[1].revents & POLLIN) != 0)
        accept_ready();

      const std::uint64_t io_tick = now_tick();
      for (std::size_t i = first_conn; i < pfds.size(); ++i) {
        auto found = connections_.find(pfd_conn[i]);
        if (found == connections_.end()) continue;
        Connection& conn = *found->second;
        const short revents = pfds[i].revents;
        if (conn.reading() &&
            (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          frames.clear();
          const ReadEvent event = conn.on_readable(frames, io_tick);
          for (const std::string& payload : frames) {
            ++stats_.frames_in;
            dispatch_frame(conn, payload);
          }
          handle_read_event(conn, event);
        }
        if (!conn.closed() && (revents & (POLLOUT | POLLHUP | POLLERR)) != 0 &&
            conn.wants_write()) {
          if (conn.flush(io_tick) == WriteEvent::kReset) {
            ++stats_.resets;
            conn.close();
          }
        }
      }
    }
  } catch (...) {
    // The loop is leaving early: no completion will ever be applied again,
    // so cancel every worker and wait them out — run() must never return
    // (or unwind) while a dispatched request can still touch this object.
    drain_cancel_.request_cancel();
    while (shared_->outstanding.load(std::memory_order_acquire) != 0) {
      pollfd pfd{wake_read_.get(), POLLIN, 0};
      poll_wait(&pfd, 1, config_.tick_ms > 0 ? config_.tick_ms : 1);
      drain_selfpipe(wake_read_.get());
    }
    listener_.stop();
    throw;
  }
  listener_.stop();
  return stats_;
}

void Server::begin_drain() {
  draining_ = true;
  drain_start_tick_ = now_tick();
  listener_.stop();  // the OS now refuses new connections
  for (auto& entry : connections_) entry.second->stop_reading();
}

void Server::force_drain() {
  forced_ = true;
  drain_cancel_.request_cancel();
  for (auto& entry : connections_) {
    Connection& conn = *entry.second;
    if (!conn.closed()) {
      conn.try_send_now(error_frame(
          "", core::StatusCode::kDeadlineExceeded,
          "connection closed: drain timeout expired with work in flight"));
      conn.close();
    }
  }
}

void Server::apply_completions() {
  std::vector<Completion> batch;
  {
    MutexLock lock(shared_->mu);
    batch.swap(shared_->completions);
  }
  const std::uint64_t tick = now_tick();
  for (Completion& done : batch) {
    auto found = connections_.find(done.conn_id);
    if (found == connections_.end() || found->second->closed()) {
      ++stats_.replies_dropped;
      continue;
    }
    Connection& conn = *found->second;
    conn.drop_inflight();
    conn.enqueue_reply(done.seq, std::move(done.frame));
    ++stats_.replies_sent;
    if (conn.flush(tick) == WriteEvent::kReset) {
      ++stats_.resets;
      conn.close();
    }
  }
}

void Server::accept_ready() {
  for (;;) {
    IoResult accepted = accept_connection(listener_.fd());
    if (accepted.n < 0) return;  // EAGAIN (or transient): wait for readiness
    Fd fd(static_cast<int>(accepted.n));
    ++stats_.accepted;
    if (draining_ || connections_.size() >= config_.max_connections) {
      // Connection-level admission control, distinct from the queue
      // admission inside service::Server: the peer gets one well-formed
      // overload frame, then the socket closes.
      const std::string frame = error_frame(
          "", core::StatusCode::kRejectedOverload,
          draining_ ? "connection rejected: server is draining"
                    : "connection rejected: connection limit reached");
      std::size_t sent = 0;
      while (sent < frame.size()) {
        const IoResult r =
            write_some(fd.get(), frame.data() + sent, frame.size() - sent);
        if (r.n <= 0) break;  // best effort; admission cannot block the loop
        sent += static_cast<std::size_t>(r.n);
      }
      ++stats_.rejected_connections;
      continue;  // fd closes via RAII
    }
    const std::uint64_t id = next_conn_id_++;
    connections_.emplace(
        id, std::make_unique<Connection>(std::move(fd), id,
                                         config_.max_frame_bytes, now_tick()));
  }
}

void Server::handle_read_event(Connection& conn, ReadEvent event) {
  switch (event) {
    case ReadEvent::kOk:
    case ReadEvent::kCleanEof:
      // Clean EOF: the peer half-closed after its last frame; in-flight
      // replies still flush before the connection closes (half-close
      // mid-reply support). Connection already left kReading by itself.
      break;
    case ReadEvent::kTruncatedEof:
      ++stats_.protocol_errors;
      conn.enqueue_reply(
          conn.next_seq(),
          error_frame("", core::StatusCode::kInvalidInput,
                      "truncated frame: connection half-closed mid-frame"));
      break;
    case ReadEvent::kBadMagic:
      ++stats_.protocol_errors;
      conn.enqueue_reply(
          conn.next_seq(),
          error_frame("", core::StatusCode::kInvalidInput,
                      "bad frame magic: stream is not DSM1-framed"));
      break;
    case ReadEvent::kOversized:
      ++stats_.protocol_errors;
      conn.enqueue_reply(
          conn.next_seq(),
          error_frame("", core::StatusCode::kInvalidInput,
                      "oversized frame: declared length exceeds " +
                          std::to_string(config_.max_frame_bytes) +
                          " bytes"));
      break;
    case ReadEvent::kReset:
      ++stats_.resets;
      conn.close();
      break;
  }
}

std::string Server::ping_reply_frame(const report::Json& doc) {
  report::Json root = report::Json::object();
  root.set("id", report::Json::string(probe_id(doc)))
      .set("kind", report::Json::string("ping"))
      .set("status", report::Json::string(
                         core::status_name(core::StatusCode::kOk)))
      .set("draining", report::Json::boolean(draining_))
      .set("connections",
           report::Json::integer(static_cast<long long>(connections_.size())))
      .set("inflight",
           report::Json::integer(static_cast<long long>(
               shared_->outstanding.load(std::memory_order_acquire))));
  // Solve-cache health: one section whether the cache serves the
  // in-process service or the --isolate parent (the handle is shared).
  if (config_.service.solve_cache != nullptr)
    root.set("cache", config_.service.solve_cache->cache_json());
  if (config_.health_source) root.set("supervise", config_.health_source());
  return encode_frame(root.dump(-1));
}

void Server::dispatch_frame(Connection& conn, const std::string& payload) {
  const std::uint64_t seq = conn.next_seq();
  report::Json doc;
  try {
    doc = report::Json::parse(payload);
  } catch (const SolveError& e) {
    ++stats_.invalid_requests;
    conn.enqueue_reply(
        seq, error_frame("", core::StatusCode::kInvalidInput,
                         std::string("malformed request payload: ") +
                             e.what()));
    return;
  }

  const report::Json* kind = doc.find("kind");
  if (kind != nullptr && kind->is_string() && kind->as_string() == "ping") {
    ++stats_.pings;
    conn.enqueue_reply(seq, ping_reply_frame(doc));
    return;
  }

  service::Request request;
  try {
    request = service::request_from_json(doc);
  } catch (const SolveError& e) {
    ++stats_.invalid_requests;
    conn.enqueue_reply(seq, error_frame(probe_id(doc), e.status(), e.what()));
    return;
  } catch (const std::exception& e) {
    ++stats_.invalid_requests;
    conn.enqueue_reply(
        seq, error_frame(probe_id(doc), core::StatusCode::kInvalidInput,
                         std::string("invalid request: ") + e.what()));
    return;
  }
  dispatch_request(conn, seq, request);
}

void Server::dispatch_request(Connection& conn, std::uint64_t seq,
                              const service::Request& request) {
  if (draining_) {
    conn.enqueue_reply(
        seq, error_frame(request.id, core::StatusCode::kRejectedOverload,
                         "request rejected: server is draining"));
    ++stats_.rejected_inflight;
    return;
  }
  const std::size_t total =
      shared_->outstanding.load(std::memory_order_acquire);
  if (conn.inflight() >= config_.max_inflight_per_connection ||
      total >= config_.max_inflight_total) {
    conn.enqueue_reply(
        seq,
        error_frame(request.id, core::StatusCode::kRejectedOverload,
                    conn.inflight() >= config_.max_inflight_per_connection
                        ? "request rejected: per-connection in-flight cap"
                        : "request rejected: server in-flight cap"));
    ++stats_.rejected_inflight;
    return;
  }

  // The request's compute budget merges (min) the configured per-request
  // deadline with the connection's eviction budget: a reply the reaper
  // would kill the connection for anyway is not worth computing.
  const int tick_ms = config_.tick_ms > 0 ? config_.tick_ms : 1;
  const std::uint64_t eviction_ns = config_.idle_timeout_ticks *
                                    static_cast<std::uint64_t>(tick_ms) *
                                    1000000ull;
  std::uint64_t budget_ns = config_.request_deadline_ns;
  if (eviction_ns > 0 && (budget_ns == 0 || eviction_ns < budget_ns))
    budget_ns = eviction_ns;

  conn.add_inflight();
  shared_->outstanding.fetch_add(1, std::memory_order_acq_rel);
  ++stats_.dispatched;

  const std::uint64_t conn_id = conn.id();
  std::shared_ptr<Shared> shared = shared_;
  core::CancelToken drain_cancel = drain_cancel_;  // copies share state
  parallel::pool_submit([this, shared, drain_cancel, conn_id, seq, request,
                         budget_ns]() {
    std::string frame;
    try {
      core::RunContext ctx;
      ctx.cancel() = drain_cancel;
      if (budget_ns > 0)
        ctx.set_deadline(std::chrono::steady_clock::now() +
                         std::chrono::nanoseconds(budget_ns));
      core::ScopedRunContext scope(ctx);
      if (config_.frame_handler) {
        frame = config_.frame_handler(request,
                                      static_cast<std::uint64_t>(seq));
      } else {
        const service::Response response =
            service_.handle(request, static_cast<std::size_t>(seq));
        frame = encode_frame(service::dump_response(response));
      }
    } catch (const std::bad_alloc&) {
      frame = error_frame(request.id, core::StatusCode::kRejectedOverload,
                          "allocation failure: request shed");
    } catch (const std::exception& e) {
      frame = error_frame(request.id, core::StatusCode::kInvalidInput,
                          std::string("internal error: ") + e.what());
    } catch (...) {
      frame = error_frame(request.id, core::StatusCode::kInvalidInput,
                          "internal error: unknown exception");
    }
    // Hand-off order matters: park the reply, then retire the outstanding
    // count, then wake. After the decrement this worker touches only the
    // shared block, so run() may return the moment outstanding hits zero.
    {
      MutexLock lock(shared->mu);
      shared->completions.push_back(Completion{conn_id, seq, std::move(frame)});
    }
    shared->outstanding.fetch_sub(1, std::memory_order_acq_rel);
    wake_selfpipe(shared->wake_fd.get());
  });
}

void Server::reap(std::uint64_t tick) {
  if (config_.idle_timeout_ticks == 0) return;
  const std::uint64_t budget = config_.idle_timeout_ticks;
  for (auto& entry : connections_) {
    Connection& conn = *entry.second;
    if (conn.closed()) continue;
    // Slow-loris: an incomplete frame must finish within the budget no
    // matter how steadily bytes trickle in.
    if (conn.reading() && conn.mid_frame() &&
        tick >= conn.frame_start_tick() + budget) {
      evict(conn, stats_.evicted_midframe,
            "connection evicted: frame not completed within its budget");
      continue;
    }
    // Write stall: the peer stopped reading its replies.
    if (conn.wants_write() && tick >= conn.last_flush_tick() + budget) {
      evict(conn, stats_.evicted_stalled,
            "connection evicted: peer stopped reading replies");
      continue;
    }
    // Plain idle: no traffic either way and nothing in flight.
    if (conn.reading() && !conn.mid_frame() && conn.inflight() == 0 &&
        !conn.wants_write() && tick >= conn.last_activity_tick() + budget) {
      evict(conn, stats_.evicted_idle, "connection evicted: idle timeout");
    }
  }
}

void Server::evict(Connection& conn, std::uint64_t& counter, const char* why) {
  ++counter;
  conn.try_send_now(
      error_frame("", core::StatusCode::kDeadlineExceeded, why));
  conn.close();
}

}  // namespace dsmt::net
