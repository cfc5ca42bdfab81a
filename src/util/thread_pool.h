// A small shared thread pool for intra-query parallelism. Deliberately
// work-stealing-free: one FIFO queue guarded by a mutex. The paper's point
// is that operators are *memory-bandwidth* bound, so a single core leaves
// most of the machine's bandwidth unused; N workers streaming independent
// morsels recover it. Scheduling sophistication buys nothing here — tasks
// are coarse (a cache-sized morsel or a radix partition each) and queue
// contention is negligible next to the memory traffic they generate.
//
// ParallelFor is the only construct the executor uses: morsel i -> result
// slot i, so output order is deterministic no matter which worker ran which
// morsel. Nested ParallelFor calls from inside a worker run inline on that
// worker (no pool re-entry), which makes arbitrary operator nesting
// deadlock-free by construction.
#ifndef CCDB_UTIL_THREAD_POOL_H_
#define CCDB_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace ccdb {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 is clamped to 1).
  explicit ThreadPool(size_t threads);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `task`. Tasks submitted from one thread start in FIFO order.
  void Submit(std::function<void()> task);

  /// True when the calling thread is one of this process's pool workers
  /// (any pool). ParallelFor uses this to run nested calls inline.
  static bool OnWorkerThread();

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t HardwareThreads();

  /// The lazily created process-wide pool (HardwareThreads() workers).
  /// The "shared thread pool" every plan's operators draw workers from.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ CCDB_GUARDED_BY(mu_);
  bool stop_ CCDB_GUARDED_BY(mu_) = false;
  /// Written once by the constructor before any concurrency exists, then
  /// only joined by the destructor — no guard needed.
  std::vector<std::thread> workers_;
};

/// Scheduling hooks for ParallelFor — the seam the serving layer's fair
/// scheduler and deadline/cancellation checks plug into. Both callbacks run
/// at morsel granularity; either may be empty. The hooks object must stay
/// valid until ParallelFor returns (it is never touched by drive tasks that
/// start after that).
struct ParallelForHooks {
  /// Called before each morsel body (on whichever thread runs it). A non-ok
  /// Status aborts the loop exactly like a body error: remaining morsels
  /// are skipped and the Status is returned — this is how a cancelled or
  /// past-deadline query stops at the next morsel boundary.
  std::function<Status()> before_morsel;

  /// Called after each completed morsel on pool-worker drives only (never
  /// on the calling thread, which must keep making progress). Returning
  /// true makes the drive requeue itself at the back of the pool's FIFO
  /// queue and release its worker — the cooperative yield that lets morsels
  /// of other concurrently executing queries interleave, so one huge join
  /// cannot hold every worker until it finishes.
  std::function<bool()> yield_after_morsel;
};

/// Runs `body(i)` for every i in [0, n) on up to `parallelism` concurrent
/// workers (the caller participates, so only parallelism-1 pool tasks are
/// spawned). Returns the first non-ok Status; remaining morsels are skipped
/// once a failure is observed. Exceptions escaping `body` become
/// StatusCode::kInternal. Runs inline (still honoring error short-circuit
/// and the before_morsel hook) when `pool` is null, `parallelism` <= 1,
/// n <= 1, or the caller is itself a pool worker.
///
/// Completion of every morsel happens-before ParallelFor returns, so bodies
/// may write to disjoint, pre-sized result slots without extra locking.
Status ParallelFor(ThreadPool* pool, size_t parallelism, size_t n,
                   const std::function<Status(size_t)>& body,
                   const ParallelForHooks* hooks = nullptr);

}  // namespace ccdb

#endif  // CCDB_UTIL_THREAD_POOL_H_
