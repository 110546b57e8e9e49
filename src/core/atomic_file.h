// Crash-safe file writes: temp file + fsync + rename.
//
// Every artifact the library leaves on disk (CSV series, golden snapshots,
// techfiles) goes through this writer, so a job killed —
// or cancelled, or deadline-expired — mid-write never leaves a truncated
// file behind: readers see either the previous complete content or the new
// complete content, never a torn intermediate. The temp file is created in
// the target's directory (rename(2) is only atomic within a filesystem),
// fsync'd before the rename, and the directory is fsync'd after it so the
// new name itself survives a power cut.
#pragma once

#include <sstream>
#include <string>

namespace dsmt::core {

/// Writes `content` to `path` atomically. Throws std::runtime_error when the
/// temp file cannot be created, written, synced, or renamed (the target is
/// left untouched and the temp file is removed).
void atomic_write_file(const std::string& path, const std::string& content);

/// Buffered atomic writer: stream into memory, then commit() the whole
/// artifact in one atomic rename. A writer abandoned without commit()
/// (e.g. by an exception unwinding a report emitter) leaves the target
/// exactly as it was.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path) : path_(std::move(path)) {}
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  std::ostream& stream() { return buffer_; }

  /// Atomically publishes the buffered content. At most once.
  void commit();
  bool committed() const { return committed_; }

 private:
  std::string path_;
  std::ostringstream buffer_;
  bool committed_ = false;
};

}  // namespace dsmt::core
