#include "server_proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "net/wire.h"
#include "stats.h"

namespace perfbench {

ServerProcess::~ServerProcess() {
  if (pid_ > 0) finish(SIGKILL);
}

void ServerProcess::spawn(const std::vector<std::string>& argv) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  std::vector<char*> args;
  for (const std::string& a : argv)
    args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  spawned_ns_ = now_ns();
  pid_ = ::fork();
  if (pid_ == 0) {
    // The server must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int in = ::open("/dev/null", O_RDONLY);
    if (in < 0 || ::dup2(in, 0) < 0 || ::dup2(out[1], 1) < 0) ::_exit(127);
    if (in != 0) ::close(in);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(out[1]);
  if (pid_ < 0) {
    ::close(out[0]);
    pid_ = -1;
    throw std::runtime_error("cannot fork for " + argv[0] + ": " +
                             std::strerror(errno));
  }
  stdout_fd_ = out[0];
}

std::string ServerProcess::finish(int signal, int* status) {
  std::string text;
  if (pid_ <= 0) return text;
  if (signal != 0) ::kill(pid_, signal);
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(stdout_fd_);
  stdout_fd_ = -1;
  int wstatus = 0;
  while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (status != nullptr) *status = wstatus;
  return text;
}

int connect_unix(const std::string& path, double timeout_s) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0)
      return fd;
    ::close(fd);
    if (now_ns() > deadline) return -1;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

namespace {

bool write_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// One DSM1 frame's payload (blocking); bytes after it are discarded.
bool read_frame(int fd, std::string& payload) {
  dsmt::net::FrameDecoder decoder;
  char buf[4096];
  for (;;) {
    switch (decoder.next(payload)) {
      case dsmt::net::FrameStatus::kFrame:
        return true;
      case dsmt::net::FrameStatus::kNeedMore:
        break;
      default:
        return false;
    }
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    decoder.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace

std::string ping(const std::string& socket_path) {
  const int fd = connect_unix(socket_path, 10.0);
  if (fd < 0) return {};
  const timeval limit{10, 0};  // a server that never answers fails the run
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
  std::string reply;
  const std::string frame =
      dsmt::net::encode_frame(R"({"id":"ping","kind":"ping"})");
  if (!write_all(fd, frame) || !read_frame(fd, reply))
    reply.clear();
  ::close(fd);
  return reply;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

}  // namespace perfbench
