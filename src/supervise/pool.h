// Process-level supervisor: crash-contained solve workers behind SEQPACKET.
//
// A WorkerPool forks N worker children at construction; each child runs
// supervise::run_worker over its half of a SOCK_SEQPACKET socketpair. The
// parent leases one worker per request — serialize, send, poll, forward the
// reply frame verbatim — so a kernel SIGSEGV/SIGFPE, an OOM kill, or an
// RLIMIT rail firing takes down ONE child mid-request, never the front end:
//
//   detect     EOF on the channel while a reply is owed, confirmed by
//              wait4(), which also yields the terminating signal and the
//              child's rusage — both recorded in the SolverDiag chain of
//              the kWorkerCrashed response the caller gets instead of
//              silence.
//   restart    the slot is reforked on next lease, after a seeded backoff
//              (restart_backoff_ns: a pure function of slot index and
//              consecutive-restart count, bitwise reproducible). Rails
//              (WorkerLimits) are reinstalled in every new child. All forks
//              — initial fleet and lazy reforks alike — happen inside the
//              single-threaded ForkBroker child (broker.h), never on a pool
//              thread, so a refork cannot inherit a lock some other thread
//              held at fork time.
//   quarantine a request whose canonical content hash (protocol.h) crashed
//              workers `quarantine_threshold` times stops reaching workers:
//              it is answered conservatively from the parent — the
//              iteration-free analytic rung of the degradation ladder when
//              quarantine_analytic_bound is set (closed-form, no crash
//              surface), else a typed kWorkerCrashed error. No crash loops,
//              no silent drops.
//
// Threading: execute() is safe from any number of pool threads. Slot
// leasing, the quarantine table, and the counters live behind one mutex;
// the leased channel fd is touched only by the leasing thread while the
// slot is marked busy. Parent-side waits poll core::run_check(), so a
// drain cancel or an ambient deadline kills the wedged child (SIGKILL) and
// answers with the interruption status instead of blocking forever.
//
// Determinism: a successful reply is the child's response bytes forwarded
// unmodified, and the child serves (request, seq) exactly as the in-process
// service would, so non-crashing lanes keep the byte-identical-replies-at-
// any-DSMT_THREADS invariant across the process boundary.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <memory>

#include "core/thread_annotations.h"
#include "net/socket_io.h"
#include "net/wire.h"
#include "report/json.h"
#include "service/server.h"
#include "supervise/broker.h"
#include "supervise/worker.h"

namespace dsmt::supervise {

struct SuperviseConfig {
  std::size_t workers = 2;             ///< forked worker children
  service::ServerConfig service{};     ///< child-side service config
  /// Cap on one IPC message's JSON payload [bytes] (both directions). The
  /// pool clamps this to what the kernel's socket buffers can actually
  /// carry in one SEQPACKET datagram (see payload_cap()); a request over
  /// the clamped cap is refused with a typed kInvalidInput, never sent.
  std::size_t max_payload_bytes = net::kDefaultMaxFrameBytes;
  /// Crashes by one canonical request hash before it stops reaching workers.
  int quarantine_threshold = 2;
  /// Serve quarantined requests from the parent-side analytic rung
  /// (conservative, iteration-free) instead of a bare kWorkerCrashed error.
  bool quarantine_analytic_bound = true;
  /// Actually sleep the restart backoff (restart_backoff_ns) before a
  /// refork. Tests disable it.
  bool sleep_on_restart_backoff = true;
  WorkerLimits limits{};  ///< rlimit rails + chaos arming for every child
  /// Parent-side cap on one reply wait [ns] (0 = ambient RunContext only).
  std::uint64_t reply_deadline_ns = 0;
  /// Granularity [ms] of the parent's reply/lease polls (cancellation and
  /// deadline observation latency).
  int poll_interval_ms = 20;
  /// Publish the quarantine table + worker stats under the sign-off
  /// "service" key for the pool's lifetime.
  bool publish_signoff = true;
  /// Parent-side shared solve cache (cache/solve_cache.h): verified hits
  /// are answered before the quarantine table and the worker lease, so
  /// quarantined-poison repeats and crashed-worker retries whose canonical
  /// twin already solved never touch a child. Children NEVER inherit it —
  /// the constructor strips service.solve_cache before forking, so the
  /// parent alone owns the memo.
  std::shared_ptr<cache::SolveCache> solve_cache;
};

/// Monotonic counters since construction (snapshot).
struct SuperviseStats {
  std::uint64_t forks = 0;        ///< children ever forked (initial + re-)
  std::uint64_t restarts = 0;     ///< reforks of a dead slot
  std::uint64_t requests = 0;     ///< execute() calls
  std::uint64_t replies = 0;      ///< worker replies forwarded verbatim
  std::uint64_t crashes = 0;      ///< workers that died serving a request
  std::uint64_t deadline_kills = 0;  ///< parent-killed wedged workers
  std::uint64_t quarantine_refusals = 0;  ///< requests refused by the table
  std::uint64_t quarantined_hashes = 0;   ///< hashes at/over the threshold
  std::uint64_t protocol_errors = 0;      ///< corrupted IPC echoes
  std::uint64_t oversize_refusals = 0;    ///< requests over the payload cap
  std::uint64_t cache_hits = 0;  ///< served from the shared solve cache
};

/// Pause [ns] before the `restart`-th consecutive refork (1-based) of worker
/// slot `slot`: 1 ms doubling per restart up to a 1 s cap, times a seeded
/// jitter factor in [0.75, 1.25]. A pure function of its arguments, so the
/// schedule is bitwise identical across runs and thread counts.
std::uint64_t restart_backoff_ns(std::size_t slot, int restart);

/// Outcome of one supervised request: the complete DSM1 reply frame for the
/// client plus the parsed status for metrics and tests.
struct ExecuteResult {
  core::StatusCode status = core::StatusCode::kOk;
  std::string frame;
};

class WorkerPool {
 public:
  explicit WorkerPool(SuperviseConfig config);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Serves one request through a leased worker. Always returns exactly one
  /// terminal result — forwarded reply, kWorkerCrashed, quarantine answer,
  /// or interruption — never throws for per-request failures. `seq` is
  /// passed to the child, which serves the request exactly like the
  /// in-process path.
  ExecuteResult execute(const service::Request& request, std::uint64_t seq);

  /// Closes every channel (children exit on EOF), reaps with a bounded
  /// wait, SIGKILLs stragglers. Idempotent; called by the destructor.
  /// Callers must not race execute() against shutdown().
  void shutdown();

  SuperviseStats stats() const;
  std::size_t live_workers() const;
  const SuperviseConfig& config() const { return config_; }

  /// Effective per-direction IPC payload cap [bytes]: max_payload_bytes
  /// clamped to the single-datagram capacity the kernel granted the worker
  /// socketpairs (SO_SNDBUF is silently limited by wmem_max; a datagram
  /// past the grant dies with EMSGSIZE instead of fragmenting).
  std::size_t payload_cap() const { return payload_cap_; }

  /// Sign-off/ping section: worker states, counters, quarantine table.
  report::Json supervise_json() const;

 private:
  struct Slot {
    ::pid_t pid = -1;
    net::Fd channel;  ///< parent end; valid iff !dead
    bool busy = false;
    bool dead = true;
    int consecutive_restarts = 0;  ///< backoff attempt index, reset on reply
    int last_signal = 0;           ///< how the previous child died
    int last_exit_code = -1;
    long last_maxrss_kb = 0;
  };

  /// A leased slot, copied out of the table so the channel fd is used
  /// without holding the mutex (the slot is busy: nobody else touches it).
  struct Lease {
    std::size_t index = 0;
    int fd = -1;
    ::pid_t pid = -1;
  };

  struct QuarantineEntry {
    int crashes = 0;
    std::uint64_t refusals = 0;
  };

  bool acquire(Lease& lease, ExecuteResult& failure,
               const service::Request& request);
  void release(std::size_t index);
  /// Polls the leased channel for the reply to (request, seq); classifies
  /// EOF as a crash, a bad echo as a protocol violation, and interruption /
  /// reply-deadline expiry as grounds to SIGKILL the worker.
  ExecuteResult await_reply(const Lease& lease,
                            const service::Request& request,
                            std::uint64_t hash, std::uint64_t seq);
  /// Reaps the child of `lease` via the broker (SIGKILL first, so a live
  /// child can never block the reap), classifies the death, marks the slot
  /// dead.
  void reap_crashed(const Lease& lease, int& signal, int& exit_code,
                    long& maxrss_kb);
  /// Counts one crash against `hash`; returns the updated crash count.
  int note_crash(std::uint64_t hash);
  /// Leases a fresh worker from the broker into `slot`.
  bool spawn_slot(Slot& slot) DSMT_REQUIRES(mu_);
  ExecuteResult quarantined_result(const service::Request& request,
                                   std::uint64_t hash, int crashes);
  ExecuteResult crashed_result(const service::Request& request,
                               const Lease& lease, std::uint64_t hash,
                               int signal, int exit_code, long maxrss_kb,
                               int crash_count);

  const SuperviseConfig config_;
  // R10-ok: both set once in the constructor (single-threaded window) and
  // read-only afterwards; the broker serializes its own channel internally.
  std::size_t payload_cap_ = 0;
  std::unique_ptr<ForkBroker> broker_;
  mutable Mutex mu_;
  CondVar slot_free_;
  std::vector<Slot> slots_ DSMT_GUARDED_BY(mu_);
  std::map<std::uint64_t, QuarantineEntry> quarantine_ DSMT_GUARDED_BY(mu_);
  SuperviseStats stats_ DSMT_GUARDED_BY(mu_);
  bool shut_down_ DSMT_GUARDED_BY(mu_) = false;
};

}  // namespace dsmt::supervise
