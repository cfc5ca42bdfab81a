#include "serve/server.h"

#include <utility>

#include "util/timer.h"

namespace ccdb {

namespace {

// Morsels a running query's pool-worker drives execute before yielding the
// worker when other queries are in flight (fair mode only).
constexpr uint32_t kMorselQuantum = 4;

// Binds the server's filter cache (possibly null) into the planner options
// so every Lower() — direct or via the plan cache's initial miss — emits
// Selects that consult it.
ServerOptions WireFilterCache(ServerOptions o, FilterCache* filters) {
  o.planner.exec.shared_scans = filters;
  return o;
}

}  // namespace

const QueryOutcome& QueryTicket::Wait() const {
  MutexLock lock(&state_->mu);
  while (!state_->done) state_->cv.Wait(&state_->mu);
  // The reference is formed under the lock; once done is set the outcome
  // is never written again, so the caller may keep it unlocked.
  return state_->outcome;
}

void QueryTicket::Cancel() {
  state_->sched.cancelled.store(true, std::memory_order_relaxed);
}

bool QueryTicket::done() const {
  MutexLock lock(&state_->mu);
  return state_->done;
}

Server::Server(ServerOptions options)
    : filters_(options.shared_scan ? std::make_unique<FilterCache>()
                                   : nullptr),
      options_(WireFilterCache(std::move(options), filters_.get())) {
  size_t n = options_.max_inflight == 0 ? 1 : options_.max_inflight;
  executors_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
}

Server::~Server() {
  std::vector<RequestPtr> orphans;
  {
    MutexLock lock(&mu_);
    stop_ = true;
    for (ClassQueue& c : classes_) {
      for (RequestPtr& r : c.queue) orphans.push_back(std::move(r));
      c.queue.clear();
    }
    queued_ = 0;
  }
  cv_.NotifyAll();
  for (std::thread& t : executors_) t.join();
  for (const RequestPtr& r : orphans) {
    Finish(r, Status::Unavailable("server shutting down"), QueryResult{},
           /*cache_hit=*/false, /*exec_ms=*/0);
  }
}

StatusOr<QueryTicket> Server::Submit(const LogicalPlan& plan,
                                     SubmitOptions options) {
  auto state = std::make_shared<serve_internal::RequestState>();
  state->plan = &plan;
  state->submit_time = std::chrono::steady_clock::now();
  if (options.timeout.count() > 0) {
    state->sched.deadline = state->submit_time + options.timeout;
  }
  if (options_.fair) {
    state->sched.morsel_quantum = kMorselQuantum;
    state->sched.active_queries = &active_;
  }
  {
    MutexLock lock(&mu_);
    ++stats_.submitted;
    if (stop_) {
      ++stats_.rejected;
      return Status::Unavailable("server shutting down");
    }
    if (queued_ >= options_.max_queue) {
      ++stats_.rejected;
      return Status::ResourceExhausted("admission queue full");
    }
    state->submit_seq = ++submit_seq_;
    ClassQueue* cq = nullptr;
    for (ClassQueue& c : classes_) {
      if (c.name == options.query_class) {
        cq = &c;
        break;
      }
    }
    if (cq == nullptr) {
      ClassQueue fresh;
      fresh.name = options.query_class;
      fresh.weight = options.weight == 0 ? 1 : options.weight;
      classes_.push_back(std::move(fresh));
      cq = &classes_.back();
    }
    cq->queue.push_back(state);
    ++queued_;
  }
  cv_.NotifyOne();
  return QueryTicket(std::move(state));
}

Server::RequestPtr Server::PopLocked() {
  size_t nc = classes_.size();
  if (nc == 0) return nullptr;
  if (!options_.fair) {
    // Global FIFO: the oldest request across every class, exactly as if
    // there were one queue. Classes still exist so callers can label
    // workloads; they just don't affect dispatch.
    ClassQueue* best = nullptr;
    for (ClassQueue& c : classes_) {
      if (c.queue.empty()) continue;
      if (best == nullptr ||
          c.queue.front()->submit_seq < best->queue.front()->submit_seq) {
        best = &c;
      }
    }
    if (best == nullptr) return nullptr;
    RequestPtr r = std::move(best->queue.front());
    best->queue.pop_front();
    return r;
  }
  // Deficit weighted round-robin: each class spends up to `weight` dispatch
  // credits per turn of the cursor, so a class drowning the queue in heavy
  // requests still hands the cursor on after its share. Empty classes
  // forfeit their credits (no banking up idle time). The attempt bound
  // covers one full refill pass plus one dispatch pass.
  for (size_t attempts = 0; attempts < 2 * nc + 1; ++attempts) {
    ClassQueue& c = classes_[cursor_];
    if (c.queue.empty()) {
      c.credits = 0;
      cursor_ = (cursor_ + 1) % nc;
      continue;
    }
    if (c.credits == 0) {
      c.credits = c.weight;
      cursor_ = (cursor_ + 1) % nc;
      continue;
    }
    --c.credits;
    RequestPtr r = std::move(c.queue.front());
    c.queue.pop_front();
    if (c.credits == 0) cursor_ = (cursor_ + 1) % nc;
    return r;
  }
  return nullptr;
}

void Server::ExecutorLoop() {
  for (;;) {
    RequestPtr req;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queued_ == 0) cv_.Wait(&mu_);
      if (stop_) return;
      req = PopLocked();
      if (req == nullptr) continue;
      --queued_;
    }
    Process(req);
  }
}

void Server::Process(const RequestPtr& req) {
  {
    // Uncontended (the ticket only reads the outcome after done), but the
    // guard makes every outcome write provably ordered.
    MutexLock lock(&req->mu);
    req->outcome.queue_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - req->submit_time)
            .count();
  }
  // Cancel-while-queued and a deadline burned entirely on queue wait
  // resolve here, before any planning work.
  Status pre = req->sched.Check();
  if (!pre.ok()) {
    Finish(req, std::move(pre), QueryResult{}, /*cache_hit=*/false,
           /*exec_ms=*/0);
    return;
  }

  active_.fetch_add(1, std::memory_order_relaxed);
  WallTimer timer;
  Status status;
  QueryResult result;

  const uint64_t key = PlanFingerprint(*req->plan);
  std::optional<PhysicalPlan> physical = cache_.Acquire(key, *req->plan);
  const bool cache_hit = physical.has_value();
  if (!physical.has_value()) {
    Planner planner(options_.planner);
    auto lowered = planner.Lower(*req->plan);
    if (!lowered.ok()) {
      status = lowered.status();
    } else {
      physical.emplace(std::move(lowered).value());
    }
  }
  if (physical.has_value()) {
    physical->BindSchedule(&req->sched);
    auto res = physical->Execute();
    if (res.ok()) {
      result = std::move(res).value();
    } else {
      status = res.status();
    }
    if (status.ok()) {
      // Only clean executions go back in the pool: a cancelled plan's
      // operators were closed mid-stream, which Open() resets anyway, but
      // there is no point pooling for a workload that is being cancelled.
      cache_.Release(key, *req->plan, std::move(*physical));
    }
  }
  active_.fetch_sub(1, std::memory_order_relaxed);
  Finish(req, std::move(status), std::move(result), cache_hit,
         timer.ElapsedMillis());
}

void Server::Finish(const RequestPtr& req, Status status, QueryResult result,
                    bool cache_hit, double exec_ms) {
  {
    // Before the ticket is released: a client that returns from Wait()
    // and immediately reads stats() must see this query counted.
    MutexLock lock(&mu_);
    ++stats_.completed;
  }
  {
    MutexLock lock(&req->mu);
    req->outcome.status = std::move(status);
    req->outcome.result = std::move(result);
    req->outcome.cache_hit = cache_hit;
    req->outcome.exec_ms = exec_ms;
    req->outcome.finish_seq =
        finish_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    req->done = true;
  }
  req->cv.NotifyAll();
}

Server::Stats Server::stats() const {
  MutexLock lock(&mu_);
  Stats s = stats_;
  s.cache = cache_.stats();
  if (filters_ != nullptr) {
    static_cast<FilterCache::Stats&>(s.shared_scans) = filters_->stats();
  }
  return s;
}

StatusOr<QueryTicket> QuerySession::Submit(const LogicalPlan& plan,
                                           std::chrono::milliseconds timeout) {
  Server::SubmitOptions opts;
  opts.query_class = query_class_;
  opts.weight = weight_;
  opts.timeout = timeout;
  return server_->Submit(plan, opts);
}

StatusOr<QueryResult> QuerySession::Run(const LogicalPlan& plan,
                                        std::chrono::milliseconds timeout) {
  CCDB_ASSIGN_OR_RETURN(QueryTicket ticket, Submit(plan, timeout));
  const QueryOutcome& outcome = ticket.Wait();
  CCDB_RETURN_IF_ERROR(outcome.status);
  return outcome.result;
}

}  // namespace ccdb
