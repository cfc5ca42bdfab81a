// Shared-scan benchmark: K client threads run filter-dominated analytic
// queries over ONE hot fact table through serve::Server, A/B-ing
// shared_scan off (every query evaluates its filter over the column —
// the re-read memory traffic the paper's bottleneck thesis warns about)
// against shared_scan on (the server's filter-result cache: a filter
// equivalent to a cached one reuses its per-chunk survivor lists, a
// strictly stronger one narrows them). The four clients' filters are
// designed so one full evaluation per chunk serves all of them: an anchor
// range, an identical copy of it, a strictly narrower range, and a
// conjunction that tightens the anchor.
//
// Reported per mode: aggregate qps and client-observed p50/p99, plus the
// cache's filter evaluation mix (full evals vs narrowed vs copied lists).
//
//   --smoke             tiny scale, no speedup assertion (the TSan CI job)
//   --json-merge=PATH   merge a "shared_scan" section into BENCH_ci.json
#include <algorithm>
#include <cstdio>
#include <cstring>
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

struct ModeResult {
  double wall_ms = 0;
  double qps = 0;
  double p50 = 0;
  double p99 = 0;
  Server::SharedScanStats scans;
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

  const size_t kRows = smoke ? 40000 : 600000;
  const size_t kClients = 4;
  const int kQueriesEach = smoke ? 3 : 12;

  std::printf("== shared_scan: %zu same-table analytic clients, filter "
              "cache A/B ==\n",
              kClients);
  std::printf("fact=%zu rows, %d queries/client%s\n\n", kRows, kQueriesEach,
              smoke ? " (smoke)" : "");

  // fact(g u32 small group domain, k u32, v u32 uniform in [0, 1000)):
  // the filters select ~2%% on v, so the scan+filter pass dominates and
  // the per-query aggregation is small.
  Rng rng(42);
  auto rs = RowStore::Make({{"g", FieldType::kU32},
                            {"k", FieldType::kU32},
                            {"v", FieldType::kU32}},
                           kRows + 1);
  CCDB_CHECK(rs.ok());
  for (size_t i = 0; i < kRows; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i % 32));
    rs->SetU32(r, 1, rng.NextU32() % 10000);
    rs->SetU32(r, 2, rng.NextU32() % 1000);
  }
  Table fact = *Table::FromRowStore(*rs);

  // One plan per client. All four filters are subsumed by the anchor range
  // (client 0), so the filter cache needs one full evaluation per chunk
  // and serves the rest by copying or narrowing its candidate list.
  std::vector<Expr> filters;
  filters.push_back(Between(Col("v"), 100, 119));              // anchor
  filters.push_back(Between(Col("v"), 100, 119));              // identical
  filters.push_back(Between(Col("v"), 104, 115));              // narrower
  filters.push_back(Between(Col("v"), 100, 119) &&             // tightened
                    Col("k") < 9000u);
  std::vector<LogicalPlan> plans;
  for (size_t c = 0; c < kClients; ++c) {
    auto p = QueryBuilder(fact)
                 .Filter(filters[c])
                 .GroupByAgg({"g"}, {Agg::Sum("v"), Agg::Count()})
                 .OrderBy("g")
                 .Build();
    CCDB_CHECK(p.ok());
    plans.push_back(*std::move(p));
  }

  auto run_mode = [&](bool sharing) -> ModeResult {
    ServerOptions opts;
    opts.max_inflight = kClients;  // all clients genuinely concurrent
    opts.max_queue = 64;
    opts.shared_scan = sharing;
    opts.planner.exec.parallelism = 1;  // concurrency comes from clients
    opts.planner.exec.scan_chunk_rows = 4096;
    Server server(opts);

    // Warm the plan cache (and the table) outside the measured window.
    for (const LogicalPlan& p : plans) {
      QuerySession warm(&server);
      CCDB_CHECK(warm.Run(p).ok());
    }

    // Synchronized rounds — the "N dashboards refresh together" shape
    // shared scans exist for: each round submits all K queries at once
    // (they run concurrently on the K executor threads) and waits for the
    // round to drain. Latency is the server-observed queue + execute time.
    std::vector<double> lat;
    WallTimer wall;
    for (int q = 0; q < kQueriesEach; ++q) {
      std::vector<QueryTicket> round;
      for (size_t c = 0; c < kClients; ++c) {
        auto t = server.Submit(plans[c]);
        CCDB_CHECK(t.ok());
        round.push_back(*std::move(t));
      }
      for (QueryTicket& t : round) {
        const QueryOutcome& o = t.Wait();
        CCDB_CHECK(o.status.ok());
        lat.push_back(o.queue_ms + o.exec_ms);
      }
    }

    ModeResult m;
    m.wall_ms = wall.ElapsedMillis();
    m.qps = m.wall_ms > 0 ? 1000.0 * static_cast<double>(lat.size()) /
                                m.wall_ms
                          : 0;
    m.p50 = Percentile(lat, 0.50);
    m.p99 = Percentile(lat, 0.99);
    m.scans = server.stats().shared_scans;
    return m;
  };

  ModeResult independent = run_mode(/*sharing=*/false);
  ModeResult shared = run_mode(/*sharing=*/true);

  auto print_mode = [](const char* name, const ModeResult& m) {
    std::printf("%-12s %6.1f qps   p50 %7.2f ms   p99 %7.2f ms   "
                "(wall %.1f ms)\n",
                name, m.qps, m.p50, m.p99, m.wall_ms);
  };
  print_mode("independent", independent);
  print_mode("shared", shared);

  const Server::SharedScanStats& s = shared.scans;
  std::printf("\nfilter cache: %llu full evals, %llu narrowed, %llu copied\n",
              static_cast<unsigned long long>(s.filter_full_evals),
              static_cast<unsigned long long>(s.filter_narrowed),
              static_cast<unsigned long long>(s.filter_copied));

  double speedup = independent.qps > 0 ? shared.qps / independent.qps : 0;
  double p99_ratio = shared.p99 > 0 ? independent.p99 / shared.p99 : 0;
  unsigned hc = std::thread::hardware_concurrency();
  std::printf("\nshared vs independent: %.2fx qps, %.2fx p99 "
              "(hardware_concurrency=%u)\n",
              speedup, p99_ratio, hc);

  if (!smoke) {
    // The acceptance bar: sharing must win clearly on throughput or tail
    // latency. The win is work elimination: one filter evaluation per
    // chunk serves four clients.
    if (!(speedup >= 1.3 || p99_ratio >= 1.3)) {
      std::fprintf(stderr,
                   "FAIL: shared scans not >= 1.3x better (%.2fx qps, "
                   "%.2fx p99)\n",
                   speedup, p99_ratio);
      return 1;
    }
    std::printf("OK: >= 1.3x on qps or p99\n");
  }

  if (!json_path.empty()) {
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "  \"shared_scan\": {\n"
        "    \"clients\": %zu,\n    \"hardware_concurrency\": %u,\n"
        "    \"independent\": {\"qps\": %.1f, \"p50_ms\": %.3f, "
        "\"p99_ms\": %.3f},\n"
        "    \"shared\": {\"qps\": %.1f, \"p50_ms\": %.3f, "
        "\"p99_ms\": %.3f},\n"
        "    \"speedup_qps\": %.3f,\n    \"p99_ratio\": %.3f,\n"
        "    \"filter_full_evals\": %llu,\n    \"filter_narrowed\": %llu,\n"
        "    \"filter_copied\": %llu\n  }",
        kClients, hc, independent.qps, independent.p50, independent.p99,
        shared.qps, shared.p50, shared.p99, speedup, p99_ratio,
        static_cast<unsigned long long>(s.filter_full_evals),
        static_cast<unsigned long long>(s.filter_narrowed),
        static_cast<unsigned long long>(s.filter_copied));
    if (!bench::MergeJsonSection(json_path, buf)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("merged \"shared_scan\" into %s\n", json_path.c_str());
  }
  return 0;
}
