// Deterministic data-parallel primitives over the fixed-size thread pool.
//
// Determinism contract: parallel_for(n, body) runs body(i) exactly once for
// every i in [0, n), each call fully independent of the others, and any
// output is written to the caller's index-addressed slot. Work is split into
// contiguous index chunks (kChunksPerThread per thread) that the calling
// thread and its pool tasks claim in index order, so a thread slowed by a
// busy CPU runs fewer chunks instead of holding up the region. Which thread
// runs a chunk varies; because no cross-item state exists and no reduction
// is performed inside the parallel region, the results are bit-identical
// for every thread count (including 1).
// Reductions happen after the join, in index order, on the calling thread —
// see ordered_reduce and docs/THEORY.md §13 "Deterministic parallelism".
//
// Error contract: if one or more body(i) calls throw, the exception of the
// LOWEST failing index is rethrown on the calling thread after all chunks
// finish — the same exception a serial loop would surface first. The call
// returns once every chunk has finished; a pool task that starts later
// finds no chunk left and ends without touching the caller's state. A
// dsmt::SolveError therefore crosses the thread boundary intact, with its
// SolverDiag attempt/recovery chain preserved (the exception object itself
// is carried by std::exception_ptr, not re-synthesized).
//
// Nesting: a parallel_for entered from inside any active parallel region —
// on a pool worker, or on the calling thread while it runs its own chunks
// — runs inline and serially. Outer loops get the threads; inner loops stay
// deterministic, deadlock-free, and free of sibling-chunk write races.
//
// Resilience: the caller's ambient core::RunContext (deadline, cancel token,
// heartbeat) is snapshotted at entry and installed on every worker for the
// region's duration, and each chunk polls it between index items. An
// interruption surfaces as a dsmt::SolveError with kDeadlineExceeded /
// kCancelled, routed through the same lowest-index first-failure channel as
// any other worker exception — so a cancelled parallel sweep reports the
// item a serial loop would have been interrupted at (the lowest unfinished
// index among the observing chunks), not a scheduling accident.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "core/run_context.h"
#include "core/thread_annotations.h"
#include "parallel/thread_pool.h"

namespace dsmt::parallel {

namespace detail {

/// First-failure slot shared by the chunks of one parallel_for: keeps the
/// exception thrown at the lowest item index, which is what a serial loop
/// would have thrown first.
class FirstError {
 public:
  void offer(std::size_t i, std::exception_ptr e) DSMT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (error_ == nullptr || i < index_) {
      index_ = i;
      error_ = std::move(e);
    }
  }

  /// The recorded exception (nullptr when every chunk finished cleanly).
  /// Called after the join, but the lock keeps the analysis — and TSan —
  /// happy about the handoff from the last offering worker.
  std::exception_ptr take() DSMT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return error_;
  }

 private:
  Mutex mu_;
  std::size_t index_ DSMT_GUARDED_BY(mu_) = static_cast<std::size_t>(-1);
  std::exception_ptr error_ DSMT_GUARDED_BY(mu_);
};

/// Chunks per thread: enough that a thread on a shared CPU leaves its
/// share of the tail to the others, few enough that claiming stays rare.
constexpr std::size_t kChunksPerThread = 8;

/// The chunks of one parallel_for: `count()` contiguous index ranges of
/// near-equal size over [0, n), handed out in index order, and the number
/// not yet finished. Shared with the pool tasks, which may start after the
/// caller has returned: a task that finds no chunk left touches nothing
/// else, so the caller waits for the chunks and never for a late worker.
class Chunks {
 public:
  Chunks(std::size_t n, std::size_t count)
      : count_(count), base_(n / count), rem_(n % count), unfinished_(count) {}

  std::size_t count() const { return count_; }

  /// The next unclaimed chunk, or count() when all are claimed.
  std::size_t claim() { return next_.fetch_add(1, std::memory_order_relaxed); }

  /// First index of chunk k (begin(count()) == n).
  std::size_t begin(std::size_t k) const {
    return k * base_ + (k < rem_ ? k : rem_);
  }

  /// Marks one claimed chunk finished.
  void finish() DSMT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (--unfinished_ == 0) cv_.notify_all();
  }

  /// Blocks until every chunk is finished.
  void wait() DSMT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (unfinished_ != 0) cv_.wait(mu_);
  }

 private:
  const std::size_t count_;
  const std::size_t base_;
  const std::size_t rem_;
  std::atomic<std::size_t> next_{0};
  Mutex mu_;
  CondVar cv_;
  std::size_t unfinished_ DSMT_GUARDED_BY(mu_);
};

template <typename F>
void run_block(std::size_t begin, std::size_t end, F& body, FirstError& err) {
  for (std::size_t i = begin; i < end; ++i) {
    try {
      // Cooperative cancellation/deadline point between items: workers stop
      // dispatching new items as soon as the run is interrupted, and the
      // interruption is offered at this item's index like any failure.
      core::throw_if_run_interrupted("parallel/parallel_for");
      body(i);
    } catch (...) {
      // Record the chunk's first failure (its minimum index) and stop the
      // chunk: later indices of this chunk would not have run serially
      // either once the loop threw.
      err.offer(i, std::current_exception());
      return;
    }
  }
}

/// Runs chunks until none is left unclaimed. Every chunk runs, so the
/// lowest failing index of the whole range is among the offers. `body` and
/// `err` are touched only while a claimed chunk is unfinished, that is,
/// while the caller still waits.
template <typename F>
void run_chunks(Chunks& chunks, F& body, FirstError& err) {
  for (std::size_t k = chunks.claim(); k < chunks.count();
       k = chunks.claim()) {
    run_block(chunks.begin(k), chunks.begin(k + 1), body, err);
    chunks.finish();
  }
}

}  // namespace detail

/// Runs body(i) for every i in [0, n) across the global pool in claimed
/// contiguous chunks; see the header comment for the determinism and error
/// contracts. Safe to call from anywhere; nested calls run inline.
template <typename F>
void parallel_for(std::size_t n, F&& body) {
  if (n == 0) return;
  // The inline cases are decided before the thread count is asked for.
  const bool inline_only =
      n == 1 || on_worker_thread() || in_parallel_region();
  const std::size_t workers = inline_only ? 1 : thread_count();
  if (workers <= 1) {
    // Serial path: identical iteration order, natural exception flow, same
    // between-item interruption points as the parallel chunks.
    for (std::size_t i = 0; i < n; ++i) {
      core::throw_if_run_interrupted("parallel/parallel_for");
      body(i);
    }
    return;
  }

  const std::size_t per_thread_chunks = workers * detail::kChunksPerThread;
  auto chunks = std::make_shared<detail::Chunks>(
      n, per_thread_chunks < n ? per_thread_chunks : n);
  // The caller claims chunks too, so count - 1 tasks already let every
  // chunk run at once; a large range gets one task per worker.
  const std::size_t tasks =
      workers < chunks->count() - 1 ? workers : chunks->count() - 1;

  // The functor and the first-error slot stay on this frame: body must be
  // re-entrant, which the independence requirement already implies, and a
  // task reaches either only through a chunk this call still waits for.
  // The first error therefore also dies on the calling thread.
  auto& fn = body;
  detail::FirstError err;

  // Snapshot the caller's ambient resilience context so pool workers poll
  // the same deadline/cancel token (copies share the underlying state). The
  // shared_ptr keeps the snapshot alive until the last task finishes.
  std::shared_ptr<const core::RunContext> run_ctx;
  if (const core::RunContext* ambient = core::current_run_context())
    run_ctx = std::make_shared<const core::RunContext>(*ambient);

  for (std::size_t t = 0; t < tasks; ++t) {
    pool_submit([chunks, &fn, &err, run_ctx] {
      core::ScopedRunContext scope(run_ctx.get());
      detail::run_chunks(*chunks, fn, err);
    });
  }
  {
    // The caller's chunks are part of the region too: a nested parallel_for
    // from inside one must run inline, exactly as it does on a pool worker —
    // otherwise the nested region would fan out concurrently with the outer
    // region's worker chunks and the serial-nesting contract would break.
    detail::RegionGuard region;
    detail::run_chunks(*chunks, fn, err);
  }
  chunks->wait();

  if (std::exception_ptr e = err.take()) std::rethrow_exception(e);
}

/// Ordered map: out[i] = fn(i) for i in [0, n), computed in parallel,
/// returned in index order. T must be default-constructible.
template <typename T, typename F>
std::vector<T> parallel_map(std::size_t n, F&& fn) {
  std::vector<T> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Ordered reduction: folds `items` serially in index order on the calling
/// thread — acc = fold(acc, items[i]) for i = 0..n-1. Pairing parallel_map
/// with ordered_reduce gives the exact floating-point sum/extremum sequence
/// of the serial code regardless of thread count.
template <typename Acc, typename T, typename Fold>
Acc ordered_reduce(Acc acc, const std::vector<T>& items, Fold&& fold) {
  for (const T& item : items) acc = fold(std::move(acc), item);
  return acc;
}

}  // namespace dsmt::parallel
