// Concurrent serving benchmark: N client threads push a mixed point/analytic
// workload through serve::Server and we measure what the serving layer is
// for — tail latency under concurrency, throughput, plan-cache hit rate,
// and the fairness win of deficit-WRR dispatch over naive FIFO.
//
// Two sections:
//  (1) mixed workload — point + analytic sessions running concurrently on a
//      fair server; per-class p50/p99 latency, qps, cache hit rate;
//  (2) fairness A/B — one analytic backlogger keeps the queue deep while a
//      point client measures its latency, once under fair dispatch and once
//      under FIFO. With fairness on, point p99 must be well below FIFO point
//      p99 (asserted with a generous margin; the paper's bottleneck logic in
//      scheduling form: the cheap query must not pay for the expensive one).
//
//   --smoke             tiny scale, no timing assertions (the TSan CI job)
//   --json-merge=PATH   merge a "concurrent_serving" section into the
//                       BENCH_ci.json written earlier by parallel_exec
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "exec/plan.h"
#include "exec/table.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ccdb;

namespace {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

/// Thread-safe latency sink, one per scheduling class.
struct LatencySink {
  std::mutex mu;
  std::vector<double> ms;
  std::atomic<int> errors{0};

  void Record(double v) {
    std::lock_guard<std::mutex> lock(mu);
    ms.push_back(v);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json-merge=", 13) == 0) {
      json_path = argv[i] + 13;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  const size_t kFactRows = smoke ? 30000 : 300000;
  const uint32_t kKeyDomain = 400;
  const size_t kPointClients = smoke ? 2 : 4;
  const size_t kAnalyticClients = smoke ? 1 : 2;
  const int kPointQueriesEach = smoke ? 6 : 40;
  const int kAnalyticQueriesEach = smoke ? 2 : 10;
  const int kFairnessPoints = smoke ? 3 : 20;
  const size_t kBacklog = 6;  // analytic requests the backlogger keeps queued

  std::printf("== concurrent_serving: mixed workload through serve::Server ==\n");
  std::printf("fact=%zu rows, %zu point + %zu analytic clients%s\n\n", kFactRows,
              kPointClients, kAnalyticClients, smoke ? " (smoke)" : "");

  Rng rng(2026);
  auto fact_rs = RowStore::Make(
      {{"k", FieldType::kU32}, {"v", FieldType::kU32}}, kFactRows + 1);
  CCDB_CHECK(fact_rs.ok());
  for (size_t i = 0; i < kFactRows; ++i) {
    size_t r = *fact_rs->AppendRow();
    fact_rs->SetU32(r, 0, rng.NextU32() % kKeyDomain);
    fact_rs->SetU32(r, 1, rng.NextU32() % 1000);
  }
  Table fact = *Table::FromRowStore(*fact_rs);
  auto dim_rs = RowStore::Make(
      {{"id", FieldType::kU32}, {"w", FieldType::kU32}}, kKeyDomain + 1);
  CCDB_CHECK(dim_rs.ok());
  for (uint32_t i = 0; i < kKeyDomain; ++i) {
    size_t r = *dim_rs->AppendRow();
    dim_rs->SetU32(r, 0, i);
    dim_rs->SetU32(r, 1, i % 32);
  }
  Table dim = *Table::FromRowStore(*dim_rs);

  // Submitted plans must outlive their tickets, so the workload is a fixed
  // set of prebuilt parameterized queries: 8 point lookups (distinct
  // literals = distinct cache entries, all hot after the first pass) and 2
  // analytic shapes.
  std::vector<LogicalPlan> point_plans;
  for (uint32_t key = 0; key < 8; ++key) {
    auto p = QueryBuilder(fact)
                 .Filter(Col("k") == key * 37u)
                 .Limit(16)
                 .Build();
    CCDB_CHECK(p.ok());
    point_plans.push_back(*std::move(p));
  }
  std::vector<LogicalPlan> analytic_plans;
  {
    auto a = QueryBuilder(fact)
                 .Join(dim, "k", "id")
                 .GroupByAgg({"w"}, {Agg::Sum("v"), Agg::Count()})
                 .OrderBy("w")
                 .Build();
    CCDB_CHECK(a.ok());
    analytic_plans.push_back(*std::move(a));
    auto b = QueryBuilder(fact)
                 .Filter(Col("v") >= 100u && Col("v") < 900u)
                 .GroupByAgg({"k"}, {Agg::Sum("v"), Agg::Max("v")})
                 .OrderBy("k")
                 .Build();
    CCDB_CHECK(b.ok());
    analytic_plans.push_back(*std::move(b));
  }

  ServerOptions base;
  base.max_inflight = 2;
  base.max_queue = 64;
  base.fair = true;
  base.planner.exec.parallelism = smoke ? 2 : 4;
  base.planner.exec.scan_chunk_rows = 4096;

  // ---- section 1: mixed workload on the fair server -------------------------
  LatencySink point_lat, analytic_lat;
  double wall_ms = 0;
  uint64_t total_queries = 0;
  double hit_rate = 0;
  {
    Server server(base);
    WallTimer wall;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kPointClients; ++c) {
      clients.emplace_back([&, c] {
        QuerySession session(&server, "point", /*weight=*/1);
        Rng prng(7 + c);
        for (int q = 0; q < kPointQueriesEach; ++q) {
          const LogicalPlan& plan =
              point_plans[prng.NextU32() % point_plans.size()];
          WallTimer t;
          auto r = session.Run(plan);
          if (!r.ok()) {
            point_lat.errors.fetch_add(1);
          } else {
            point_lat.Record(t.ElapsedMillis());
          }
        }
      });
    }
    for (size_t c = 0; c < kAnalyticClients; ++c) {
      clients.emplace_back([&, c] {
        QuerySession session(&server, "analytic", /*weight=*/1);
        for (int q = 0; q < kAnalyticQueriesEach; ++q) {
          const LogicalPlan& plan = analytic_plans[(c + q) % 2];
          WallTimer t;
          auto r = session.Run(plan);
          if (!r.ok()) {
            analytic_lat.errors.fetch_add(1);
          } else {
            analytic_lat.Record(t.ElapsedMillis());
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    wall_ms = wall.ElapsedMillis();

    Server::Stats stats = server.stats();
    total_queries = stats.completed;
    uint64_t lookups = stats.cache.hits + stats.cache.misses;
    hit_rate = lookups > 0
                   ? static_cast<double>(stats.cache.hits) /
                         static_cast<double>(lookups)
                   : 0;
    CCDB_CHECK(point_lat.errors.load() == 0 &&
               analytic_lat.errors.load() == 0);
  }
  double qps = wall_ms > 0 ? 1000.0 * static_cast<double>(total_queries) /
                                 wall_ms
                           : 0;
  double point_p50 = Percentile(point_lat.ms, 0.50);
  double point_p99 = Percentile(point_lat.ms, 0.99);
  double analytic_p50 = Percentile(analytic_lat.ms, 0.50);
  double analytic_p99 = Percentile(analytic_lat.ms, 0.99);
  std::printf("mixed workload: %llu queries in %.1f ms  (%.1f qps, cache "
              "hit rate %.0f%%)\n",
              static_cast<unsigned long long>(total_queries), wall_ms, qps,
              hit_rate * 100);
  std::printf("  point     p50 %7.2f ms   p99 %7.2f ms   (%zu queries)\n",
              point_p50, point_p99, point_lat.ms.size());
  std::printf("  analytic  p50 %7.2f ms   p99 %7.2f ms   (%zu queries)\n\n",
              analytic_p50, analytic_p99, analytic_lat.ms.size());

  // ---- section 2: fairness A/B ----------------------------------------------
  // max_inflight = 1 makes latency queue-dominated: one analytic backlogger
  // keeps kBacklog heavy requests waiting while the point client measures.
  // Under FIFO every point query sits behind the whole backlog; under WRR
  // the point class gets the next dispatch slot after the running analytic.
  auto fairness_run = [&](bool fair) -> std::vector<double> {
    ServerOptions opts = base;
    opts.fair = fair;
    opts.max_inflight = 1;
    Server server(opts);

    std::atomic<bool> stop{false};
    std::thread backlogger([&] {
      QuerySession session(&server, "analytic");
      std::deque<QueryTicket> outstanding;
      for (size_t i = 0; i < kBacklog; ++i) {
        auto t = session.Submit(analytic_plans[0]);
        CCDB_CHECK(t.ok());
        outstanding.push_back(*std::move(t));
      }
      while (!stop.load(std::memory_order_acquire)) {
        outstanding.front().Wait();
        outstanding.pop_front();
        auto t = session.Submit(analytic_plans[0]);
        CCDB_CHECK(t.ok());
        outstanding.push_back(*std::move(t));
      }
      for (QueryTicket& t : outstanding) t.Wait();
    });

    // Let the backlog actually form before measuring.
    while (server.stats().completed < 1) {
      std::this_thread::yield();
    }
    std::vector<double> latencies;
    QuerySession session(&server, "point");
    for (int q = 0; q < kFairnessPoints; ++q) {
      WallTimer t;
      auto r = session.Run(point_plans[q % point_plans.size()]);
      CCDB_CHECK(r.ok());
      latencies.push_back(t.ElapsedMillis());
    }
    stop.store(true, std::memory_order_release);
    backlogger.join();
    return latencies;
  };

  std::vector<double> fair_lat = fairness_run(/*fair=*/true);
  std::vector<double> fifo_lat = fairness_run(/*fair=*/false);
  double fair_p50 = Percentile(fair_lat, 0.50);
  double fair_p99 = Percentile(fair_lat, 0.99);
  double fifo_p50 = Percentile(fifo_lat, 0.50);
  double fifo_p99 = Percentile(fifo_lat, 0.99);
  double fairness_ratio = fair_p99 > 0 ? fifo_p99 / fair_p99 : 0;
  std::printf("fairness A/B (max_inflight=1, %zu analytic queries always "
              "queued):\n",
              kBacklog);
  std::printf("  point under WRR   p50 %7.2f ms   p99 %7.2f ms\n", fair_p50,
              fair_p99);
  std::printf("  point under FIFO  p50 %7.2f ms   p99 %7.2f ms\n", fifo_p50,
              fifo_p99);
  std::printf("  fairness ratio (fifo_p99 / fair_p99): %.2fx\n", fairness_ratio);

  if (!smoke) {
    // The backlog is kBacklog deep, so FIFO point latency is ~kBacklog
    // analytic executions vs ~1-2 under WRR; 1.3x is a generous margin for
    // a >3x expected gap.
    if (!(fair_p99 * 1.3 < fifo_p99)) {
      std::fprintf(stderr,
                   "FAIL: fair point p99 (%.2f ms) not demonstrably below "
                   "FIFO point p99 (%.2f ms)\n",
                   fair_p99, fifo_p99);
      return 1;
    }
    std::printf("  OK: fair p99 * 1.3 < fifo p99\n");
  }

  if (!json_path.empty()) {
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "  \"concurrent_serving\": {\n"
        "    \"queries\": %llu,\n    \"qps\": %.1f,\n"
        "    \"cache_hit_rate\": %.3f,\n"
        "    \"point\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f},\n"
        "    \"analytic\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f},\n"
        "    \"fairness\": {\"fair_point_p99_ms\": %.3f, "
        "\"fifo_point_p99_ms\": %.3f, \"ratio\": %.3f}\n  }",
        static_cast<unsigned long long>(total_queries), qps, hit_rate,
        point_p50, point_p99, analytic_p50, analytic_p99, fair_p99, fifo_p99,
        fairness_ratio);
    if (!bench::MergeJsonSection(json_path, buf)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nmerged \"concurrent_serving\" into %s\n", json_path.c_str());
  }
  return 0;
}
