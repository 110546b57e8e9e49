// Fixed-size worker pool behind the deterministic parallel layer.
//
// This header and its .cpp are the only places in the library allowed to
// create threads (lint rule R6 no-raw-thread): every other subsystem gets
// its concurrency through parallel_for.h, which is what carries the
// determinism guarantee. The pool itself is a plain task queue — it knows
// nothing about partitioning or ordering.
//
// Sizing: the global pool is built lazily on first use with thread_count()
// threads — the `DSMT_THREADS` environment variable when set (clamped to
// [1, 256]), otherwise std::thread::hardware_concurrency(). Both are read
// once, at first use, and the result is cached; set_thread_count(0)
// re-reads them. Tests and benches may override at runtime with
// set_thread_count(); the pool is rebuilt when idle.
//
// Placement: worker i starts on the i-th CPU of the process's allowed set
// after the creating thread's own (wrapping), then widens its affinity
// back to the whole set. Where the kernel balances load this is only a
// starting point; where it does not (a cpuset with sched_load_balance off,
// isolated CPUs) a new thread never leaves its creator's CPU, and without
// the move the whole pool would share one CPU.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace dsmt::parallel {

/// Thread count the global pool uses: the explicit set_thread_count()
/// override if one is active, else DSMT_THREADS, else hardware concurrency.
/// Resolved once and cached, so a call is one atomic load and takes no
/// lock. Always >= 1.
std::size_t thread_count();

/// Overrides the global pool size (rebuilding the pool on next use), or
/// restores the DSMT_THREADS/hardware default when n == 0, re-reading both.
/// Must not be called from inside a parallel region.
void set_thread_count(std::size_t n);

/// True on a pool worker thread. parallel_for uses this to run nested
/// parallel regions inline instead of deadlocking on the shared queue.
bool on_worker_thread();

/// True while the current thread is executing parallel_for chunks — which
/// includes the *calling* thread running chunks of its own region, not
/// just pool workers. parallel_for nests inline whenever this holds:
/// without it, a nested region launched from a caller-run chunk would fan
/// out concurrently with the outer region's worker chunks, and the nesting
/// contract ("inner loops run serially") would silently only be true on
/// workers.
bool in_parallel_region();

namespace detail {

/// RAII marker for in_parallel_region(), installed by parallel_for around
/// the caller-run chunks. Depth-counted so sibling regions compose.
class RegionGuard {
 public:
  RegionGuard();
  ~RegionGuard();
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;
};

}  // namespace detail

/// High-water mark on queued-but-unstarted pool tasks. pool_submit() from a
/// producer thread blocks while the queue is at the mark, so a burst of
/// submissions holds bounded memory instead of growing the queue without
/// limit. Workers never block on the mark (they only drain), and nested
/// parallel regions run inline without submitting, so the bound cannot
/// deadlock the pool. Default kDefaultQueueHighWater.
inline constexpr std::size_t kDefaultQueueHighWater = 1024;
std::size_t queue_high_water();
/// Sets the high-water mark (clamped to >= 1). Takes effect on the next
/// submission; must not be called from inside a parallel region.
void set_queue_high_water(std::size_t n);

/// Total tasks drained (dequeued and run) by pool workers since process
/// start. Monotonic across pool rebuilds; lets tests and service metrics
/// observe that a burst actually flowed through the bounded queue.
std::uint64_t tasks_drained();

/// Deepest queue occupancy observed since process start — always <= the
/// high-water mark in force at the time, which is what makes the bound
/// checkable from outside.
std::size_t queue_peak_depth();

/// Submits `task` to the global pool. Internal plumbing for parallel_for;
/// prefer the primitives in parallel_for.h. Blocks while the queue sits at
/// the high-water mark.
void pool_submit(std::function<void()> task);

}  // namespace dsmt::parallel
