// ExecOptions is the user-facing execution knob set (chunking +
// parallelism) that rides PlannerOptions from QueryBuilder-built plans into
// the Planner; ExecContext is its resolved, operator-facing form owned by
// the PhysicalPlan. Operators hold a borrowed pointer and draw workers from
// ctx->pool via ParallelFor — every operator in a plan (and every plan that
// doesn't pass its own pool) shares one process-wide pool, so concurrent
// queries cannot oversubscribe the machine.
#ifndef CCDB_EXEC_EXEC_CONTEXT_H_
#define CCDB_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace ccdb {

class ThreadPool;
class FilterCache;  // exec/filter_cache.h

/// Per-query scheduling state the serving layer threads through the
/// executor. Lives in exec/ (not serve/) because operators consult it at
/// every morsel boundary; serve/ owns instances, exec/ only reads them.
/// All members are safe to poll from any worker thread.
struct ScheduleContext {
  /// Absolute deadline; time_point::max() (default) means none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// Set (by Server::Cancel or a client ticket) to stop the query at the
  /// next morsel boundary with StatusCode::kCancelled.
  std::atomic<bool> cancelled{false};

  /// Morsels a worker drive runs before yielding its pool worker to the
  /// back of the FIFO queue (weighted round-robin at morsel granularity:
  /// a query's weight is its quantum). 0 disables yielding — the plan
  /// holds its workers until done, the pre-serving behavior.
  uint32_t morsel_quantum = 0;

  /// Number of queries currently executing on the shared pool (owned by the
  /// Server). Yielding is pointless — pure queue churn — when this reads 1,
  /// so the hook only fires with it > 1. Null means "unknown, always yield
  /// when a quantum is set".
  const std::atomic<size_t>* active_queries = nullptr;

  /// Morsels completed under this context (fairness accounting + quantum).
  std::atomic<uint64_t> morsels{0};

  /// Cancellation / deadline poll, cheap enough for every morsel: one
  /// relaxed load, plus a clock read only when a deadline is set.
  Status Check() const {
    if (cancelled.load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled");
    }
    if (deadline != std::chrono::steady_clock::time_point::max() &&
        std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::Ok();
  }

  /// True when the worker that just finished a morsel should yield its pool
  /// slot: a quantum is set, this query has run a full quantum since the
  /// last yield, and other queries are actually waiting for workers.
  bool YieldAfterMorsel() {
    uint64_t done = morsels.fetch_add(1, std::memory_order_relaxed) + 1;
    if (morsel_quantum == 0) return false;
    if (active_queries != nullptr &&
        active_queries->load(std::memory_order_relaxed) <= 1) {
      return false;
    }
    return done % morsel_quantum == 0;
  }
};

/// Execution knobs, orthogonal to plan shape: the same LogicalPlan runs at
/// any parallelism with identical results (modulo row order of unordered
/// group-by output at parallelism > 1).
struct ExecOptions {
  /// Rows per scan chunk. 0 (default) picks a cache-sized chunk from the
  /// machine profile (see DefaultScanChunkRows); SIZE_MAX executes
  /// whole-BAT-at-a-time, the paper's full-materialization model.
  size_t scan_chunk_rows = 0;

  /// Worker threads operators may use (morsels, radix partitions, group-by
  /// partials). 1 = serial execution, byte-identical to the pre-parallel
  /// engine; 0 = all hardware threads.
  size_t parallelism = 1;

  /// Pool to draw workers from; null uses ThreadPool::Shared() when
  /// parallelism > 1. The pool must outlive plan execution.
  ThreadPool* pool = nullptr;

  /// Optional scheduling state (deadline / cancellation / fair-share
  /// quantum), owned by the caller (typically serve::Server) and outliving
  /// plan execution. Null runs unscheduled.
  ScheduleContext* sched = nullptr;

  /// Optional filter-result cache (exec/filter_cache.h). When bound, every
  /// Select directly over a base-table scan takes its survivor lists from
  /// the cache, so a repeated filter over unchanged data does not re-read
  /// the column. Null (default) evaluates every filter —
  /// byte-identical results either way. Owned by the caller (typically
  /// serve::Server), must outlive plan execution.
  FilterCache* shared_scans = nullptr;
};

/// Resolved ExecOptions (owned by PhysicalPlan, borrowed by operators).
struct ExecContext {
  ThreadPool* pool = nullptr;
  size_t parallelism = 1;
  ScheduleContext* sched = nullptr;
  FilterCache* shared_scans = nullptr;

  bool parallel() const { return parallelism > 1 && pool != nullptr; }

  /// Morsel count for an n-row input: `per_worker` morsels for each of the
  /// `parallelism` workers, but never morsels smaller than `min_rows`.
  size_t ShardsFor(size_t n, size_t min_rows, size_t per_worker = 1) const {
    if (!parallel() || n < 2 * min_rows) return 1;
    size_t by_rows = n / min_rows;
    size_t wanted = parallelism * per_worker;
    return by_rows < wanted ? by_rows : wanted;
  }
};

}  // namespace ccdb

#endif  // CCDB_EXEC_EXEC_CONTEXT_H_
