#include "open_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

#include "generator.h"
#include "net/wire.h"
#include "report/json.h"
#include "server_proc.h"
#include "service/server.h"
#include "stats.h"

namespace perfbench {

using dsmt::service::Request;

Reference compute_reference(const std::vector<Request>& requests,
                            std::size_t threads,
                            std::vector<std::string>* texts) {
  Reference ref;
  ref.hash.resize(requests.size());
  ref.ok_full.resize(requests.size());
  if (texts != nullptr) texts->assign(requests.size(), std::string());
  dsmt::service::ServerConfig config;
  config.publish_signoff = false;
  dsmt::service::Server server(config);
  threads = std::max<std::size_t>(1, std::min(threads, requests.size()));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < requests.size(); i += threads) {
        const dsmt::service::Response resp = server.handle(requests[i], i);
        std::string text = dsmt::service::response_to_json(resp).dump(-1);
        ref.hash[i] = fnv1a(text);
        if (texts != nullptr) (*texts)[i] = std::move(text);
        ref.ok_full[i] =
            resp.ok() && !resp.degraded &&
            resp.degradation_level == dsmt::service::DegradationLevel::kFull;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return ref;
}

bool reply_matches(const std::string& payload, std::uint64_t ref_hash,
                   bool ref_ok_full) {
  return ref_ok_full && fnv1a(payload) == ref_hash;
}

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate,
                                           std::size_t count) {
  Rng rng(seed);
  std::vector<std::int64_t> offsets(count);
  double t = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    t += rng.exponential(rate);
    offsets[k] = static_cast<std::int64_t>(t * 1e9);
  }
  return offsets;
}

PhaseResult run_phase(const std::string& socket_path, std::size_t connections,
                      const std::vector<Request>& requests,
                      const std::vector<std::int64_t>& schedule,
                      const Reference& reference) {
  const std::size_t n = requests.size();
  const std::size_t conns = std::max<std::size_t>(1, std::min(connections, n));
  std::vector<int> fds;
  for (std::size_t c = 0; c < conns; ++c) {
    const int fd = connect_unix(socket_path, 10.0);
    if (fd < 0) {
      for (const int f : fds) ::close(f);
      throw std::runtime_error("cannot connect to " + socket_path);
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    fds.push_back(fd);
  }
  std::vector<std::string> frames(n);
  for (std::size_t k = 0; k < n; ++k)
    frames[k] = dsmt::net::encode_frame(payload_of(requests[k]));

  std::vector<std::int64_t> sent_ns(n, 0);
  std::vector<std::int64_t> done_ns(n, 0);
  std::vector<char> match(n, 0);

  // One thread does both sides: sends fall due on the schedule, and
  // between them the thread waits in ppoll for replies, so the client adds
  // a single thread to the host's run queue.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<dsmt::net::FrameDecoder> inbound(conns);
  std::vector<char> closed(conns, 0);
  std::vector<std::string> outbound(conns);
  std::vector<std::size_t> flushed(conns, 0);  ///< bytes of outbound sent
  std::vector<std::deque<std::size_t>> awaiting(conns);  ///< in send order
  std::vector<pollfd> pfds(conns);
  std::size_t done = 0;
  std::size_t next_send = 0;
  // The run gives up when neither a send nor a reply happened for this
  // long past the next send's due time.
  constexpr std::int64_t kStallLimitNs = 2'000'000'000;
  const std::int64_t t0 = now_ns() + 1'000'000;
  std::int64_t progress_ns = t0;
  std::string payload;
  char buf[1 << 16];
  // When the next send falls due (the last progress once all are sent).
  const auto next_due = [&] {
    return next_send < n ? t0 + schedule[next_send] : progress_ns;
  };
  while (done < n) {
    std::int64_t now = now_ns();
    if (now - std::max(progress_ns, next_due()) >= kStallLimitNs) break;
    while (next_send < n && t0 + schedule[next_send] <= now &&
           awaiting[next_send % conns].size() < kWindow) {
      const std::size_t c = next_send % conns;
      sent_ns[next_send] = now;
      outbound[c] += frames[next_send];
      awaiting[c].push_back(next_send);
      progress_ns = now;
      ++next_send;
    }
    for (std::size_t c = 0; c < conns; ++c) {
      std::string& out = outbound[c];
      if (flushed[c] == out.size()) continue;
      const ssize_t put = ::send(fds[c], out.data() + flushed[c],
                                 out.size() - flushed[c], MSG_NOSIGNAL);
      if (put > 0) flushed[c] += static_cast<std::size_t>(put);
      if (flushed[c] == out.size()) {
        out.clear();
        flushed[c] = 0;
      }
    }
    for (std::size_t c = 0; c < conns; ++c) {
      short events = POLLIN;
      if (flushed[c] != outbound[c].size()) events |= POLLOUT;
      pfds[c] = {closed[c] ? -1 : fds[c], events, 0};
    }
    // Wake for the next due send, unless it waits for its window (then a
    // reply wakes the thread), and at the latest when the run gives up.
    const std::int64_t due = next_due();
    std::int64_t wake = std::max(progress_ns, due) + kStallLimitNs;
    if (next_send < n && awaiting[next_send % conns].size() < kWindow)
      wake = std::min(wake, due);
    now = now_ns();
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
    timespec timeout{static_cast<time_t>(wait / 1000000000),
                     static_cast<long>(wait % 1000000000)};
    if (::ppoll(pfds.data(), conns, &timeout, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < conns; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = ::read(fds[c], buf, sizeof buf);
      const std::int64_t at = now_ns();
      if (got <= 0) {
        if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        closed[c] = 1;
        continue;
      }
      inbound[c].append(buf, static_cast<std::size_t>(got));
      while (inbound[c].next(payload) == dsmt::net::FrameStatus::kFrame) {
        if (awaiting[c].empty()) continue;  // unsolicited: nothing to match
        const std::size_t k = awaiting[c].front();
        awaiting[c].pop_front();
        match[k] = reply_matches(payload, reference.hash[k],
                                 reference.ok_full[k] != 0);
        done_ns[k] = at;
        progress_ns = at;
        ++done;
      }
    }
    if (std::count(closed.begin(), closed.end(), 1) ==
        static_cast<std::ptrdiff_t>(conns))
      break;
  }
  for (const int fd : fds) ::close(fd);

  PhaseResult r;
  r.attempted = n;
  for (std::size_t k = 0; k < n; ++k) {
    if (sent_ns[k] != 0)
      r.lag_us.push_back(static_cast<double>(sent_ns[k] - t0 - schedule[k]) *
                         1e-3);
    if (done_ns[k] == 0) {
      ++r.unanswered;
    } else if (match[k] == 0) {
      ++r.mismatched;
    } else {
      ++r.matched;
      r.rtt_us.push_back(static_cast<double>(done_ns[k] - sent_ns[k]) * 1e-3);
      r.ids.push_back(static_cast<std::uint64_t>(index_of_id(requests[k].id)));
    }
  }
  return r;
}

}  // namespace perfbench
