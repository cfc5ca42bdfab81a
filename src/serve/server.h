// Server / QuerySession / QueryTicket: the concurrent serving front end.
//
// A Server owns `max_inflight` executor threads above the engine. Client
// threads Submit() validated LogicalPlans and get back a QueryTicket; the
// plan queues in its *scheduling class* (e.g. "point" vs "analytic") until
// an executor thread adopts it. Three layers of control keep the mixed
// workload civil:
//
//  * admission — the queue is bounded: Submit() returns ResourceExhausted
//    once max_queue requests are already waiting, so overload sheds at the
//    door instead of growing latency without bound;
//  * dispatch — executor threads pick the next request by deficit weighted
//    round-robin across classes (fair = true), so a backlog of heavy
//    analytic queries cannot starve point lookups in another class; with
//    fair = false dispatch is global FIFO (the baseline the benchmark
//    compares against);
//  * execution — each request carries a ScheduleContext with its deadline
//    and cancel flag, polled at every morsel boundary, plus a morsel
//    quantum: pool-worker drives of a running query yield the shared
//    ThreadPool's workers back after a quantum whenever other queries are
//    executing, interleaving morsels of concurrent plans.
//
// Repeated parameterized queries skip Planner::Lower through the embedded
// PlanCache (serve/plan_cache.h), keyed on plan fingerprint and gated on
// the scanned tables' cardinality bands.
#ifndef CCDB_SERVE_SERVER_H_
#define CCDB_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec_context.h"
#include "exec/filter_cache.h"
#include "exec/plan.h"
#include "exec/result.h"
#include "model/planner.h"
#include "serve/plan_cache.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ccdb {

struct ServerOptions {
  /// Executor threads == queries executing concurrently. Further admitted
  /// requests wait in their class queue.
  size_t max_inflight = 2;

  /// Requests allowed to wait beyond the in-flight ones; Submit() rejects
  /// with ResourceExhausted past this.
  size_t max_queue = 16;

  /// One planner configuration for every query (and for the plan cache,
  /// whose fingerprints do not cover execution knobs).
  PlannerOptions planner;

  /// true: deficit weighted round-robin across scheduling classes, plus
  /// morsel-quantum yielding on the shared pool. false: global FIFO
  /// dispatch and no yielding — the naive baseline.
  bool fair = true;

  /// Morsels a running query's pool-worker drives execute before yielding
  /// the worker when other queries are in flight (fair mode only). 0 never
  /// yields.
  uint32_t morsel_quantum = 4;

  bool use_plan_cache = true;

  /// true: the server owns a FilterCache (exec/filter_cache.h) and every
  /// Select directly over a base-table scan reuses the survivor lists of an
  /// earlier structurally equal filter over unchanged data.
  /// false: every filter is evaluated — byte-identical results.
  bool shared_scan = true;
};

/// Everything a client learns about one finished query.
struct QueryOutcome {
  Status status;       // Ok, or Cancelled / DeadlineExceeded / exec error
  QueryResult result;  // populated iff status.ok()
  bool cache_hit = false;
  /// Global completion order, 1-based: the j-th query to finish on this
  /// server has finish_seq == j. The fairness tests assert on this —
  /// completion *order* is deterministic where latency is not.
  uint64_t finish_seq = 0;
  double queue_ms = 0;  // submit -> adopted by an executor thread
  double exec_ms = 0;   // plan (or cache fetch) + execute
};

namespace serve_internal {

/// Shared request state: owned jointly by the ticket (client side) and the
/// server's queue / executor thread. The ScheduleContext lives here, giving
/// it an address stable for the whole execution, wherever the request is.
struct RequestState {
  const LogicalPlan* plan = nullptr;
  std::chrono::steady_clock::time_point submit_time;
  uint64_t submit_seq = 0;  // global FIFO order
  ScheduleContext sched;

  Mutex mu;
  CondVar cv;
  bool done CCDB_GUARDED_BY(mu) = false;
  /// Written by exactly one executor thread, but the ticket may poll done()
  /// and then read the outcome reference concurrently, so every write —
  /// including the pre-execution queue_ms stamp — happens under `mu`.
  QueryOutcome outcome CCDB_GUARDED_BY(mu);
};

}  // namespace serve_internal

/// Client-side handle to a submitted query. Copyable (shared state); the
/// server completes every ticket eventually — including with Unavailable
/// at shutdown — so Wait() never blocks forever.
class QueryTicket {
 public:
  /// Blocks until the query finishes; the reference stays valid for the
  /// ticket's lifetime.
  const QueryOutcome& Wait() const;

  /// Requests cancellation: a queued query completes with Cancelled when
  /// an executor adopts it; a running one aborts at the next morsel
  /// boundary (its operators are closed on the way out).
  void Cancel();

  bool done() const;

 private:
  friend class Server;
  explicit QueryTicket(std::shared_ptr<serve_internal::RequestState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<serve_internal::RequestState> state_;
};

class Server {
 public:
  struct SubmitOptions {
    /// Scheduling class; classes are registered on first use. Weighted
    /// round-robin runs across classes, FIFO within one.
    std::string query_class = "default";

    /// Credits per round-robin refill for this class (captured when the
    /// class is first seen). Higher = larger share of dispatch slots.
    uint32_t weight = 1;

    /// Total budget covering queue wait + execution; zero means none.
    std::chrono::milliseconds timeout{0};
  };

  /// The filter cache's counters, under the names the shared-scan stats
  /// have always had.
  struct SharedScanStats : FilterCache::Stats {
    // Counted by the cooperative scan cursor, which was removed; always 0.
    uint64_t chunks_driven = 0;
    uint64_t chunks_fanned_out = 0;
    uint64_t overflows = 0;
  };

  struct Stats {
    uint64_t submitted = 0;
    uint64_t rejected = 0;   // admission control refusals
    uint64_t completed = 0;  // any terminal status, including errors
    PlanCache::Stats cache;
    SharedScanStats shared_scans;  // zeros when shared_scan=false
  };

  explicit Server(ServerOptions options);

  /// Completes every still-queued request with Unavailable, then joins the
  /// executor threads (running queries finish normally).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits `plan` (which must stay alive and unmodified until the ticket
  /// completes) or rejects with ResourceExhausted.
  StatusOr<QueryTicket> Submit(const LogicalPlan& plan,
                               SubmitOptions options);
  StatusOr<QueryTicket> Submit(const LogicalPlan& plan) {
    return Submit(plan, SubmitOptions());
  }

  Stats stats() const;

 private:
  using RequestPtr = std::shared_ptr<serve_internal::RequestState>;

  struct ClassQueue {
    std::string name;
    uint32_t weight = 1;
    uint32_t credits = 0;
    std::deque<RequestPtr> queue;
  };

  void ExecutorLoop();
  /// Next request per dispatch policy, or null.
  RequestPtr PopLocked() CCDB_REQUIRES(mu_);
  void Process(const RequestPtr& req);
  void Finish(const RequestPtr& req, Status status, QueryResult result,
              bool cache_hit, double exec_ms);

  /// Declared before options_: the constructor's init list builds the
  /// cache first, then stores its address into the planner options every
  /// query is lowered with. Declared-before also means destroyed-after, so
  /// cached plans never outlive the filter cache they point at.
  std::unique_ptr<FilterCache> filters_;
  const ServerOptions options_;
  PlanCache cache_;

  mutable Mutex mu_;
  CondVar cv_;
  bool stop_ CCDB_GUARDED_BY(mu_) = false;
  std::vector<ClassQueue> classes_ CCDB_GUARDED_BY(mu_);
  size_t cursor_ CCDB_GUARDED_BY(mu_) = 0;  // WRR position
  size_t queued_ CCDB_GUARDED_BY(mu_) = 0;  // requests in class queues
  uint64_t submit_seq_ CCDB_GUARDED_BY(mu_) = 0;
  Stats stats_ CCDB_GUARDED_BY(mu_);

  /// Queries currently inside Process(); the ScheduleContexts' yield hooks
  /// read this to skip yielding when running alone.
  std::atomic<size_t> active_{0};
  std::atomic<uint64_t> finish_seq_{0};

  std::vector<std::thread> executors_;
};

/// One client's conversational handle: remembers a scheduling class and
/// weight so call sites read like sessions, not dispatch plumbing.
class QuerySession {
 public:
  explicit QuerySession(Server* server, std::string query_class = "default",
                        uint32_t weight = 1)
      : server_(server),
        query_class_(std::move(query_class)),
        weight_(weight) {}

  StatusOr<QueryTicket> Submit(const LogicalPlan& plan,
                               std::chrono::milliseconds timeout =
                                   std::chrono::milliseconds{0});

  /// Submit + Wait: the synchronous convenience. Non-ok outcome statuses
  /// (DeadlineExceeded, Cancelled, rejection) surface as the error.
  StatusOr<QueryResult> Run(const LogicalPlan& plan,
                            std::chrono::milliseconds timeout =
                                std::chrono::milliseconds{0});

 private:
  Server* server_;
  std::string query_class_;
  uint32_t weight_;
};

}  // namespace ccdb

#endif  // CCDB_SERVE_SERVER_H_
