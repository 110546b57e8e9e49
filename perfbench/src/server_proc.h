// The server under test as a child process, driven from outside the way a
// deployment drives it: spawned from its executable, reached over its
// unix socket, stopped with SIGTERM, its sign-off report read from stdout
// and its peak memory read from /proc.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns argv[0] with `argv`, stdout piped back, stdin from /dev/null.
  /// Throws std::runtime_error on failure.
  void spawn(const std::vector<std::string>& argv);

  /// Sends `signal` (0 = none, just wait), reads stdout to EOF and reaps
  /// the child. Returns its stdout; `status` gets the wait status.
  std::string finish(int signal, int* status = nullptr);

  pid_t pid() const { return pid_; }
  std::int64_t spawned_ns() const { return spawned_ns_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::int64_t spawned_ns_ = 0;
};

/// Connects to a unix socket, retrying until `timeout_s` passes (the
/// server may still be starting). Returns the fd or -1.
int connect_unix(const std::string& path, double timeout_s);

/// Sends a ping on a fresh connection and returns the reply payload
/// (empty on failure).
std::string ping(const std::string& socket_path);

/// Peak resident set [MB] of a running process: VmHWM from
/// /proc/<pid>/status, 0 if it cannot be read. Unlike the wait4 rusage
/// figure, it does not count the pages the child shared with this process
/// between fork and exec.
double peak_rss_mb(pid_t pid);

}  // namespace perfbench
