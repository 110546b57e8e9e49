// Thread-stress suite for the annotated concurrent subsystems (label
// `tsan-stress`). These tests are written for the TSan build: they create
// real contention — many threads, tight loops, deliberately small queue
// bounds — so that ThreadSanitizer (and, at compile time, Clang's
// -Wthread-safety over the dsmt::Mutex vocabulary) can observe every lock
// path under fire. They also run in the plain release suite, where the
// invariant checks still bite; only the race *detection* needs TSan.
//
// Raw std::thread is deliberate here: the point is to attack the library
// from outside the deterministic parallel_for layer, the way a hostile
// caller would. Tests are exempt from lint R6.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/run_context.h"
#include "core/signoff.h"
#include "numeric/fault_injection.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "report/json.h"

namespace {

constexpr std::size_t kAttackers = 8;

// ---------------------------------------------------------------------------
// ThreadPool: concurrent producers against a deliberately tiny queue bound.

TEST(ThreadStress, PoolSubmitDrainFromManyProducers) {
  dsmt::parallel::set_thread_count(4);
  dsmt::parallel::set_queue_high_water(2);  // force producers to block
  const std::uint64_t drained_before = dsmt::parallel::tasks_drained();

  constexpr std::size_t kTasksPerProducer = 200;
  std::atomic<std::uint64_t> ran{0};
  std::vector<std::thread> producers;
  producers.reserve(kAttackers);
  for (std::size_t p = 0; p < kAttackers; ++p) {
    producers.emplace_back([&ran] {
      for (std::size_t i = 0; i < kTasksPerProducer; ++i) {
        dsmt::parallel::pool_submit(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : producers) t.join();

  // Drain. A parallel_for join only proves earlier tasks were *dequeued*
  // (its blocks sit behind them in the FIFO queue) — a worker can still be
  // mid-task when the join releases — so spin until the counter settles.
  dsmt::parallel::parallel_for(kAttackers, [](std::size_t) {});
  for (int spin = 0;
       spin < 1000000 && ran.load() < kAttackers * kTasksPerProducer; ++spin)
    std::this_thread::yield();
  EXPECT_EQ(ran.load(), kAttackers * kTasksPerProducer);
  EXPECT_GE(dsmt::parallel::tasks_drained() - drained_before,
            kAttackers * kTasksPerProducer);
  // The bound held while the producers were blocked on it.
  EXPECT_GE(dsmt::parallel::queue_peak_depth(), 1u);

  dsmt::parallel::set_queue_high_water(0);  // restore default (clamps to >=1)
  dsmt::parallel::set_queue_high_water(dsmt::parallel::kDefaultQueueHighWater);
  dsmt::parallel::set_thread_count(0);
}

TEST(ThreadStress, ConcurrentParallelForCallers) {
  dsmt::parallel::set_thread_count(4);
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kAttackers);
  for (std::size_t c = 0; c < kAttackers; ++c) {
    callers.emplace_back([&total] {
      for (int round = 0; round < 20; ++round) {
        dsmt::parallel::parallel_for(64, [&total](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kAttackers * 20u * 64u);
  dsmt::parallel::set_thread_count(0);
}

// The resolved thread count is cached in an atomic and read without a lock;
// set_thread_count clears it under the config mutex. Readers racing an
// override loop must only ever see one of the counts that was in force.
TEST(ThreadStress, ThreadCountReadersRaceOverride) {
  dsmt::parallel::set_thread_count(2);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  readers.reserve(kAttackers);
  for (std::size_t r = 0; r < kAttackers; ++r) {
    readers.emplace_back([&stop, &bad] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t n = dsmt::parallel::thread_count();
        if (n != 2 && n != 3) bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int round = 0; round < 2000; ++round)
    dsmt::parallel::set_thread_count(round % 2 == 0 ? 3 : 2);
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  dsmt::parallel::set_thread_count(0);
}

// Regression for the nested-from-caller race TSan caught: block 0 of a
// parallel region runs on the calling thread, and a nested parallel_for
// from inside it used to fan out across the pool concurrently with the
// outer worker blocks — so the inner body's plain `sums[i] += 1` raced.
// With the RegionGuard the nested region runs inline, same as on a worker.
TEST(ThreadStress, NestedParallelFromCallerBlockRunsInline) {
  dsmt::parallel::set_thread_count(4);
  std::vector<int> sums(16, 0);  // deliberately NOT atomic
  dsmt::parallel::parallel_for(sums.size(), [&sums](std::size_t i) {
    EXPECT_TRUE(dsmt::parallel::in_parallel_region() ||
                dsmt::parallel::on_worker_thread());
    dsmt::parallel::parallel_for(64, [&sums, i](std::size_t) {
      sums[i] += 1;
    });
  });
  for (int s : sums) EXPECT_EQ(s, 64);
  EXPECT_FALSE(dsmt::parallel::in_parallel_region());
  dsmt::parallel::set_thread_count(0);
}

// ---------------------------------------------------------------------------
// Fault-injection hooks: readers in a tight loop while arm/disarm cycles
// swap plans whose kernel_substr strings differ in length (forcing the
// std::string heap buffer to move). Regression test for the plan read that
// used to happen lock-free: TSan flags the old code here.

TEST(ThreadStress, FaultArmDisarmRacesHookReaders) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kAttackers);
  for (std::size_t r = 0; r < kAttackers; ++r) {
    readers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_acquire)) {
        const double v = dsmt::numeric::fault::filter_residual(
            "numeric/cg", 3, 0.25);
        // Armed kPerturbResidual scales, disarmed passes through; either
        // way the result is finite and positive.
        ASSERT_GT(v, 0.0);
        const int budget = dsmt::numeric::fault::clamp_iterations(
            "numeric/cg", 100);
        ASSERT_GE(budget, 1);
        ASSERT_LE(budget, 100);
      }
    });
  }

  for (int cycle = 0; cycle < 200; ++cycle) {
    dsmt::numeric::fault::FaultPlan plan;
    plan.kind = dsmt::numeric::fault::FaultKind::kPerturbResidual;
    plan.scale = 2.0;
    // Alternate short and long kernel names so the guarded string's buffer
    // actually reallocates between arms.
    plan.kernel_substr =
        (cycle % 2 == 0)
            ? "numeric/cg"
            : "numeric/cg-with-a-deliberately-long-kernel-name-suffix";
    dsmt::numeric::fault::arm(plan);
    dsmt::numeric::fault::disarm();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(dsmt::numeric::fault::armed());
}

// ---------------------------------------------------------------------------
// Sign-off service-source slot: 8 threads register and tear down their own
// ownership in a loop while the main thread snapshots the slot. The
// owner-checked clear means a stale owner can never evict a newer one, and
// after every thread has cleared, the slot must be empty.

TEST(ThreadStress, SignoffSourceRegistrationTeardown) {
  std::vector<std::thread> owners;
  owners.reserve(kAttackers);
  std::vector<int> tokens(kAttackers, 0);  // distinct stable owner addresses
  for (std::size_t o = 0; o < kAttackers; ++o) {
    owners.emplace_back([&tokens, o] {
      const void* self = &tokens[o];
      for (int i = 0; i < 300; ++i) {
        dsmt::core::set_signoff_service_source(self, [] {
          auto json = dsmt::report::Json::object();
          json.set("stress", dsmt::report::Json::boolean(true));
          return json;
        });
        dsmt::core::clear_signoff_service_source(self);
      }
    });
  }
  // Concurrent snapshots of the slot exercise the read path under churn.
  for (int i = 0; i < 300; ++i) {
    (void)dsmt::core::signoff_service_source();
  }
  for (auto& t : owners) t.join();
  // Every registrant cleared itself; the owner check guarantees nothing is
  // left behind regardless of interleaving.
  EXPECT_FALSE(static_cast<bool>(dsmt::core::signoff_service_source()));
}

// ---------------------------------------------------------------------------
// RunContext cancellation: workers poll an ambient context while another
// thread trips the cancel token mid-sweep.

TEST(ThreadStress, CancelMidParallelSweep) {
  dsmt::parallel::set_thread_count(4);
  dsmt::core::RunContext context;
  dsmt::core::CancelToken cancel = context.cancel();  // copies share state
  std::atomic<std::uint64_t> items{0};

  std::thread canceller([&cancel, &items] {
    // Let a few items through, then cancel.
    while (items.load(std::memory_order_acquire) == 0) std::this_thread::yield();
    cancel.request_cancel();
  });

  bool interrupted = false;
  try {
    dsmt::core::ScopedRunContext scope(context);
    dsmt::parallel::parallel_for(1u << 20, [&items](std::size_t) {
      items.fetch_add(1, std::memory_order_acq_rel);
    });
  } catch (const dsmt::SolveError& e) {
    interrupted = true;
    EXPECT_EQ(e.diag().status, dsmt::core::StatusCode::kCancelled);
  }
  canceller.join();
  EXPECT_TRUE(interrupted);
  // Cooperative cancellation stopped the sweep well short of 2^20 items.
  EXPECT_LT(items.load(), 1u << 20);
  dsmt::parallel::set_thread_count(0);
}

}  // namespace
