#include "net/socket_io.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>

#include "core/splitmix.h"
#include "core/thread_annotations.h"

namespace dsmt::net {

namespace {

// ---- fault shim state (mirror of numeric/fault_injection.cpp) -----------

std::atomic<bool> g_armed{false};
std::atomic<int> g_op_count{0};
Mutex g_plan_mu;
testing::SocketFaultPlan g_plan DSMT_GUARDED_BY(g_plan_mu);

/// What the armed plan wants done to the data op numbered `op` (1-based).
struct FaultDecision {
  bool inject_eintr = false;   ///< fail once with EINTR before the real call
  bool inject_eagain = false;  ///< lie EAGAIN instead of doing the op
  bool inject_reset = false;   ///< fail ECONNRESET (read) / EPIPE (write)
  std::size_t clamp_len = 0;   ///< 0 = no clamp, else max bytes this op
};

FaultDecision decide(bool is_read, std::size_t len) {
  FaultDecision d;
  if (!g_armed.load(std::memory_order_acquire)) return d;
  const int op = 1 + g_op_count.fetch_add(1, std::memory_order_relaxed);
  testing::SocketFaultPlan plan;
  {
    MutexLock lock(g_plan_mu);
    plan = g_plan;
  }
  if (plan.reset_after >= 0 && op > plan.reset_after) {
    d.inject_reset = true;
    return d;
  }
  if (plan.eintr_period > 0 && op % plan.eintr_period == 0)
    d.inject_eintr = true;
  if (is_read && plan.eagain_period > 0 && op % plan.eagain_period == 0)
    d.inject_eagain = true;
  if (plan.short_io && len > 1) {
    const std::uint64_t draw = core::splitmix64(
        plan.seed ^ (static_cast<std::uint64_t>(op) << 1) ^ (is_read ? 1 : 0));
    std::size_t clamp = 1 + static_cast<std::size_t>(draw % 7);
    d.clamp_len = clamp < len ? clamp : len;
  }
  return d;
}

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset(int fd) {
  // No EINTR retry around close(): on Linux the fd is released even when
  // close() is interrupted, and retrying can close a recycled descriptor.
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

int Fd::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

bool IoResult::would_block() const {
  return n < 0 && (error == EAGAIN || error == EWOULDBLOCK);
}

bool IoResult::reset() const {
  return n < 0 && (error == ECONNRESET || error == EPIPE);
}

IoResult read_some(int fd, char* buf, std::size_t len) {
  const FaultDecision fault = decide(/*is_read=*/true, len);
  if (fault.inject_reset) return {-1, ECONNRESET};
  if (fault.inject_eagain) return {-1, EAGAIN};
  const std::size_t want = fault.clamp_len > 0 ? fault.clamp_len : len;
  bool eintr_pending = fault.inject_eintr;
  for (;;) {
    if (eintr_pending) {  // injected EINTR: same retry path as the real one
      eintr_pending = false;
      continue;
    }
    const long n = ::recv(fd, buf, want, 0);
    if (n >= 0) return {n, 0};
    if (errno == EINTR) continue;  // interrupted before any byte: retry
    return {-1, errno};
  }
}

IoResult write_some(int fd, const char* buf, std::size_t len) {
  const FaultDecision fault = decide(/*is_read=*/false, len);
  if (fault.inject_reset) return {-1, EPIPE};
  const std::size_t want = fault.clamp_len > 0 ? fault.clamp_len : len;
  bool eintr_pending = fault.inject_eintr;
  for (;;) {
    if (eintr_pending) {  // injected EINTR: same retry path as the real one
      eintr_pending = false;
      continue;
    }
    // MSG_NOSIGNAL: a peer that closed mid-reply yields EPIPE in the
    // result, never a process-killing SIGPIPE.
    const long n = ::send(fd, buf, want, MSG_NOSIGNAL);
    if (n >= 0) return {n, 0};
    if (errno == EINTR) continue;  // interrupted before any byte: retry
    return {-1, errno};
  }
}

int poll_wait(pollfd* fds, std::size_t nfds, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const bool bounded = timeout_ms >= 0;
  const Clock::time_point deadline =
      bounded ? Clock::now() + std::chrono::milliseconds(timeout_ms)
              : Clock::time_point{};
  int wait_ms = timeout_ms;
  for (;;) {
    const int rc = ::poll(fds, static_cast<nfds_t>(nfds), wait_ms);
    if (rc >= 0) return rc;
    if (errno != EINTR) return rc;
    // EINTR: re-arm against the monotonic remaining budget so a signal
    // storm cannot stretch the tick.
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      wait_ms = left.count() > 0 ? static_cast<int>(left.count()) : 0;
    }
  }
}

IoResult accept_connection(int listen_fd) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return {fd, 0};
    if (errno == EINTR) continue;  // interrupted accept: retry
    // A peer that aborted while queued is not an error of ours: report it
    // as would-block so the loop just moves on.
    if (errno == ECONNABORTED) return {-1, EAGAIN};
    return {-1, errno};
  }
}

bool make_selfpipe(Fd& read_end, Fd& write_end) {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) return false;
  read_end.reset(fds[0]);
  write_end.reset(fds[1]);
  return true;
}

void wake_selfpipe(int write_fd) {
  // Async-signal-safe: only write(2); errno is preserved for the
  // interrupted context.
  const int saved_errno = errno;
  const char byte = 1;
  for (;;) {
    const long n = ::write(write_fd, &byte, 1);
    if (n >= 0) break;
    if (errno == EINTR) continue;  // interrupted wake: retry
    break;  // EAGAIN: pipe full — a pending byte already guarantees a wake
  }
  errno = saved_errno;
}

void drain_selfpipe(int read_fd) {
  char buf[64];
  for (;;) {
    const long n = ::read(read_fd, buf, sizeof buf);
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;  // interrupted drain: retry
    break;  // EOF or EAGAIN: drained
  }
}

std::size_t tune_datagram_capacity(int fd, std::size_t want_bytes) {
  // Ask for the whole message; the kernel doubles the request for skb
  // bookkeeping and clamps it to wmem_max, so the grant must be read back
  // rather than assumed.
  constexpr std::size_t kIntCap = static_cast<std::size_t>(1) << 30;
  const int want =
      static_cast<int>(want_bytes < kIntCap ? want_bytes : kIntCap);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &want, sizeof want);
  int granted = 0;
  ::socklen_t len = sizeof granted;
  if (::getsockopt(fd, SOL_SOCKET, SO_SNDBUF, &granted, &len) != 0 ||
      granted <= 0)
    return want_bytes;  // unknowable: let the sender's errno path decide
  // AF_UNIX refuses a datagram larger than the buffer minus a small skb
  // reserve (32 bytes on Linux); keep a wider margin for portability.
  constexpr std::size_t kReserve = 64;
  const std::size_t usable = static_cast<std::size_t>(granted) > kReserve
                                 ? static_cast<std::size_t>(granted) - kReserve
                                 : 0;
  return usable < want_bytes ? usable : want_bytes;
}

IoResult send_with_fd(int fd, const char* buf, std::size_t len,
                      int fd_to_pass) {
  struct iovec iov;
  iov.iov_base = const_cast<char*>(buf);
  iov.iov_len = len;
  struct msghdr msg {};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(struct cmsghdr) char control[CMSG_SPACE(sizeof(int))];
  if (fd_to_pass >= 0) {
    msg.msg_control = control;
    msg.msg_controllen = sizeof control;
    struct cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
    cmsg->cmsg_level = SOL_SOCKET;
    cmsg->cmsg_type = SCM_RIGHTS;
    cmsg->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(cmsg), &fd_to_pass, sizeof(int));
  }
  for (;;) {
    const long n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n >= 0) return {n, 0};
    if (errno == EINTR) continue;  // interrupted before any byte: retry
    return {-1, errno};
  }
}

IoResult recv_with_fd(int fd, char* buf, std::size_t len, int& fd_out) {
  fd_out = -1;
  struct iovec iov;
  iov.iov_base = buf;
  iov.iov_len = len;
  for (;;) {
    struct msghdr msg {};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    alignas(struct cmsghdr) char control[CMSG_SPACE(sizeof(int))];
    msg.msg_control = control;
    msg.msg_controllen = sizeof control;
    const long n = ::recvmsg(fd, &msg, MSG_CMSG_CLOEXEC);
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted before any byte: retry
      return {-1, errno};
    }
    for (struct cmsghdr* cmsg = CMSG_FIRSTHDR(&msg); cmsg != nullptr;
         cmsg = CMSG_NXTHDR(&msg, cmsg))
      if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS &&
          cmsg->cmsg_len >= CMSG_LEN(sizeof(int)))
        std::memcpy(&fd_out, CMSG_DATA(cmsg), sizeof(int));
    return {n, 0};
  }
}

namespace testing {

void arm(const SocketFaultPlan& plan) {
  {
    MutexLock lock(g_plan_mu);
    g_plan = plan;
  }
  g_op_count.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
}

void disarm() { g_armed.store(false, std::memory_order_release); }

bool armed() { return g_armed.load(std::memory_order_acquire); }

int op_count() { return g_op_count.load(std::memory_order_relaxed); }

}  // namespace testing

}  // namespace dsmt::net
