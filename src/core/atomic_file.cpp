#include "core/atomic_file.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace dsmt::core {

namespace {

/// Unique-within-process temp name next to the target, so rename(2) stays on
/// one filesystem and concurrent writers (threads emitting different
/// artifacts) cannot collide.
std::string temp_name_for(const std::string& path) {
  static std::atomic<unsigned> seq{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("atomic_write_file: " + what + " for " + path);
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& content) {
  const std::string tmp = temp_name_for(path);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot create temp file", tmp);

  std::size_t off = 0;
  while (off < content.size()) {
    const ::ssize_t n =
        ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      fail("write failed", tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  // Data must be durable before the rename makes it reachable — otherwise a
  // crash could leave the *new* name pointing at missing blocks.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail("fsync failed", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail("close failed", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail("rename failed", path);
  }
  // Make the rename itself durable: without a directory fsync the new name
  // lives only in the in-memory dentry cache, and a power cut after "success"
  // can roll an artifact back to the previous name after the caller was told
  // it was written. Failures here are real failures (the caller was promised
  // durability), except EINVAL/ENOTSUP from filesystems that cannot fsync
  // directories, where the content fsync above is the best the platform
  // offers.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  int dfd = -1;
  do {
    dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (dfd < 0 && errno == EINTR);
  // Some filesystems refuse to open (or fsync) directories at all. The
  // rename has already landed and the content fsync ran, so a refused
  // directory handle downgrades the rename's durability to the platform's
  // best effort — it must not turn a write that succeeded into a
  // caller-visible failure.
  if (dfd < 0) return;
  int rc = 0;
  do {
    rc = ::fsync(dfd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINVAL && errno != ENOTSUP) {
    ::close(dfd);
    fail("parent directory fsync failed", dir);
  }
  ::close(dfd);
}

void AtomicFile::commit() {
  if (committed_)
    throw std::logic_error("AtomicFile: commit() called twice for " + path_);
  atomic_write_file(path_, buffer_.str());
  committed_ = true;
}

}  // namespace dsmt::core
