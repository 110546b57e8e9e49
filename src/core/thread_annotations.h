// Compile-time thread-safety layer: Clang capability annotations plus the
// annotated mutex vocabulary every concurrent subsystem must use.
//
// The macros wrap Clang's thread-safety analysis attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Under Clang with
// DSMT_THREAD_SAFETY=ON the library builds with -Wthread-safety promoted to
// an error, so a guarded member read without its mutex, a missing unlock, or
// a lock-order inversion is a *build failure*, not a review finding. Under
// any other compiler every macro expands to nothing and the wrappers compile
// down to their std counterparts — release outputs are unaffected.
//
// Policy (enforced by dsmt_lint rules R9/R10):
//   * Annotated subsystems (src/parallel/, src/service/, core/signoff,
//     core/run_context, numeric/fault_injection) must use
//     dsmt::Mutex / dsmt::MutexLock / dsmt::CondVar from this header — raw
//     std::mutex / std::lock_guard / std::unique_lock are fenced out (R9),
//     because the raw types carry no capability and silently opt a data
//     structure out of the analysis.
//   * Every mutable global or primitive/container member in those
//     subsystems must be std::atomic, DSMT_GUARDED_BY-annotated, const,
//     thread_local, or carry an explicit `R10-ok:` justification (R10).
//
// Lock hierarchy (documented here, asserted by the analysis where the
// acquisition order is visible to it; see DESIGN.md "Lock hierarchy"):
//   level 0 (leaf, never held while calling out):
//     parallel::Pool::mu_, parallel::detail::FirstError::mu,
//     parallel::detail::Chunks::mu_, numeric::fault g_plan_mu
//   level 1 (may hold while doing I/O or invoking a registered callback,
//     must not acquire another level-1 lock):
//     core::signoff ServiceSourceSlot::mu, parallel g_config_mu
// No path in the library acquires two of these locks at once.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define DSMT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DSMT_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a class as a capability (lockable). The string names the capability
/// kind in diagnostics ("mutex").
#define DSMT_CAPABILITY(x) DSMT_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose lifetime equals a critical section.
#define DSMT_SCOPED_CAPABILITY DSMT_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the named capability.
#define DSMT_GUARDED_BY(x) DSMT_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the named capability.
#define DSMT_PT_GUARDED_BY(x) DSMT_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability held on entry (and leaves it held).
#define DSMT_REQUIRES(...) \
  DSMT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability (not held on entry, held on exit).
#define DSMT_ACQUIRE(...) \
  DSMT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on exit).
#define DSMT_RELEASE(...) \
  DSMT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function returns true when it acquired the capability.
#define DSMT_TRY_ACQUIRE(...) \
  DSMT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (deadlock fence:
/// public entry points of a class exclude their own mutex).
#define DSMT_EXCLUDES(...) DSMT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Declares lock-order edges for the analysis.
#define DSMT_ACQUIRED_BEFORE(...) \
  DSMT_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define DSMT_ACQUIRED_AFTER(...) \
  DSMT_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define DSMT_RETURN_CAPABILITY(x) DSMT_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code the analysis cannot follow (must carry a comment
/// explaining why it is correct).
#define DSMT_NO_THREAD_SAFETY_ANALYSIS \
  DSMT_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dsmt {

/// std::mutex with a capability the analysis can track. Level in the lock
/// hierarchy is a property of the *instance* (see the header comment), not
/// of this type.
class DSMT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DSMT_ACQUIRE() { mu_.lock(); }
  void unlock() DSMT_RELEASE() { mu_.unlock(); }
  bool try_lock() DSMT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII critical section over a dsmt::Mutex — the only sanctioned way to
/// hold one (a bare lock()/unlock() pair cannot survive an exception).
class DSMT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DSMT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DSMT_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to dsmt::Mutex. wait() requires the mutex held;
/// it atomically releases it for the block and re-acquires it before
/// returning, exactly like std::condition_variable — the annotation models
/// the externally visible state (held on entry, held on exit).
///
/// Spurious wakeups are real: every wait() call site must sit in a loop that
/// re-checks its predicate under the lock (clang-tidy
/// bugprone-spuriously-wake-up-functions enforces the same rule for the raw
/// std types).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// One blocking wait; may wake spuriously (call in a predicate loop).
  void wait(Mutex& mu) DSMT_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock's ownership claim so the MutexLock at the call site stays
    // the one true owner. No lock/unlock happens outside the wait itself.
    std::unique_lock<std::mutex> relock(mu.mu_, std::adopt_lock);
    cv_.wait(relock);
    relock.release();
  }

  /// Blocking wait bounded by `timeout` (relative, monotonic); may return
  /// early or spuriously — call in a predicate loop exactly like wait().
  void wait_for(Mutex& mu, std::chrono::nanoseconds timeout)
      DSMT_REQUIRES(mu) {
    std::unique_lock<std::mutex> relock(mu.mu_, std::adopt_lock);
    cv_.wait_for(relock, timeout);
    relock.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dsmt
