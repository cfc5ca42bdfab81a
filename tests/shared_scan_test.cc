// Shared scans through the filter-result cache: the FilterCache behind
// SelectOp (a filter structurally equal to a cached one after
// normalization reuses its list; equivalent filters written differently,
// stronger filters, and filters differing in literal type, negation or
// column are evaluated separately; a NaN-literal filter is never stored;
// lists survive across queries until the data version or chunking moves;
// a cancelled query stores only the chunks it finished; tables are keyed
// on their liveness token; at most 8 filters per table; Selects over
// non-scan children bypass it), and end-to-end byte-identity: plans with
// the cache bound produce exactly the cache-free results at parallelism
// {1, 2, 8}, with and without the serving layer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/expr.h"
#include "exec/filter_cache.h"
#include "exec/operator.h"
#include "exec/plan.h"
#include "exec/table.h"
#include "model/planner.h"
#include "serve/server.h"
#include "util/thread_pool.h"

namespace ccdb {
namespace {

// items(order u32, qty u32, price f64, shipmode char10): qty = 1 + (i +
// shift) % 5, price = 10 + i % 97 with every 250th price NaN (exercises
// the IEEE semantics cached lists must respect), shipmode cycles
// MAIL/AIR/TRUCK/SHIP.
Table MakeItems(size_t n, size_t shift = 0) {
  auto rs = RowStore::Make(
      {
          {"order", FieldType::kU32},
          {"qty", FieldType::kU32},
          {"price", FieldType::kF64},
          {"shipmode", FieldType::kChar10},
      },
      n + 1);
  CCDB_CHECK(rs.ok());
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP"};
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i / 3));
    rs->SetU32(r, 1, static_cast<uint32_t>(1 + (i + shift) % 5));
    rs->SetF64(r, 2,
               i % 250 == 249 ? std::numeric_limits<double>::quiet_NaN()
                              : 10.0 + static_cast<double>(i % 97));
    const char* m = modes[i % 4];
    rs->SetBytes(r, 3, m, strlen(m));
  }
  return *Table::FromRowStore(*rs);
}

Expr N(Expr e) { return NormalizeExpr(std::move(e)); }

/// The whole table as one scan chunk.
Chunk WholeTable(const Table& t) {
  ScanOp scan(&t, SIZE_MAX);
  CCDB_CHECK(scan.Open().ok());
  Chunk chunk;
  auto more = scan.Next(&chunk);
  CCDB_CHECK(more.ok() && *more);
  return chunk;
}

/// Ground truth: the filter evaluated over the whole table with the same
/// kernels SelectOp uses.
std::vector<uint32_t> Oracle(const Table& t, const Expr& normalized) {
  auto r = EvalFilterPositions(WholeTable(t), normalized, nullptr);
  CCDB_CHECK(r.ok());
  return *std::move(r);
}

// --- the filter cache behind SelectOp ----------------------------------------

constexpr size_t kChunk = 1024;

/// Rows a Select over a ScanOp of `t` emits, with the cache bound.
size_t SelectRows(const Table& t, Expr filter, FilterCache* cache,
                  size_t chunk_rows = kChunk) {
  ExecContext ctx;
  ctx.shared_scans = cache;
  SelectOp op(std::make_unique<ScanOp>(&t, chunk_rows), std::move(filter),
              &ctx, &t, chunk_rows);
  CCDB_CHECK(op.Open().ok());
  size_t rows = 0;
  Chunk out;
  for (;;) {
    auto more = op.Next(&out);
    CCDB_CHECK(more.ok());
    if (!*more) break;
    rows += out.rows;
  }
  op.Close();
  return rows;
}

/// Table-wide survivor positions of `filter`, asked of `cache` chunk by
/// chunk exactly as a Select over a ScanOp of `t` asks it.
std::vector<uint32_t> CachedPositions(const Table& t, const Expr& filter,
                                      FilterCache* cache) {
  Expr normalized = OrderConjunctsBySelectivity(N(filter));
  ScanOp scan(&t, kChunk);
  CCDB_CHECK(scan.Open().ok());
  std::vector<uint32_t> out;
  Chunk chunk;
  for (size_t index = 0;; ++index) {
    auto more = scan.Next(&chunk);
    CCDB_CHECK(more.ok());
    if (!*more) break;
    auto positions =
        cache->Filter(t, kChunk, index, chunk, normalized, nullptr);
    CCDB_CHECK(positions.ok());
    for (uint32_t p : **positions) {
      out.push_back(static_cast<uint32_t>(index * kChunk + p));
    }
  }
  return out;
}

TEST(FilterCacheTest, EqualNormalizedFiltersShareTheCandidateList) {
  Table t = MakeItems(6 * kChunk);
  FilterCache cache;
  // Different syntax, one normalized tree: De Morgan turns the negated
  // disjunction into exactly the conjunction of bounds.
  Expr f1 = !(Col("qty") < 2u || Col("qty") > 3u);
  Expr f2 = Col("qty") >= 2u && Col("qty") <= 3u;
  ASSERT_TRUE(N(f1) == N(f2));
  size_t expect = Oracle(t, N(f1)).size();
  EXPECT_EQ(SelectRows(t, f1, &cache), expect);
  EXPECT_EQ(SelectRows(t, f2, &cache), expect);
  FilterCache::Stats s = cache.stats();
  EXPECT_EQ(s.filter_full_evals, 6u);  // one of the pair, once per chunk
  EXPECT_EQ(s.filter_copied, 6u);      // the other reuses its list
  EXPECT_EQ(s.filter_narrowed, 0u);
}

// The cache matches trees, not meanings: equivalent filters that normalize
// differently are each evaluated, and each returns exactly its own rows.
TEST(FilterCacheTest, EquivalentFiltersWrittenDifferentlyEvaluateSeparately) {
  Table t = MakeItems(6 * kChunk);
  FilterCache cache;
  Expr between = Between(Col("qty"), 2, 3);
  Expr bounds = Col("qty") >= 2u && Col("qty") <= 3u;
  std::vector<uint32_t> expect = Oracle(t, N(between));
  ASSERT_EQ(expect, Oracle(t, N(bounds)));
  EXPECT_EQ(CachedPositions(t, between, &cache), expect);
  EXPECT_EQ(CachedPositions(t, bounds, &cache), expect);
  FilterCache::Stats s = cache.stats();
  EXPECT_EQ(s.filter_full_evals, 12u);  // both, once per chunk
  EXPECT_EQ(s.filter_copied, 0u);
  EXPECT_EQ(s.filter_narrowed, 0u);
}

// Literal type, the `negated` flag and the column are part of a filter's
// identity: changing any one of them never reuses the other's list.
TEST(FilterCacheTest, FiltersDifferingInOneFieldNeverShareAList) {
  Table t = MakeItems(4 * kChunk);
  Expr u32_eq = Col("qty") == 3u;
  Expr i64_eq = u32_eq;
  i64_eq.value = Literal::I64(3);  // same rows, evaluated widened
  struct Pair {
    const char* what;
    Expr a, b;
  };
  std::vector<Pair> pairs;
  pairs.push_back({"literal type", u32_eq, i64_eq});
  pairs.push_back({"negated", Between(Col("qty"), 2, 3),
                   !Between(Col("qty"), 2, 3)});
  pairs.push_back({"column", Col("qty") == 3u, Col("order") == 3u});
  for (const Pair& p : pairs) {
    FilterCache cache;
    EXPECT_FALSE(N(p.a) == N(p.b)) << p.what;
    EXPECT_EQ(CachedPositions(t, p.a, &cache), Oracle(t, N(p.a))) << p.what;
    EXPECT_EQ(CachedPositions(t, p.b, &cache), Oracle(t, N(p.b))) << p.what;
    EXPECT_EQ(cache.stats().filter_full_evals, 8u) << p.what;
    EXPECT_EQ(cache.stats().filter_copied, 0u) << p.what;
  }
}

// A NaN literal equals nothing, itself included, so a NaN filter's lists
// could never be found again. Stored, they would take every slot of the
// table's cache for good (one new entry per chunk); it is evaluated but
// never stored, and a later repeated filter is still cached.
TEST(FilterCacheTest, NanLiteralFilterIsNeverStored) {
  Table t = MakeItems(8 * kChunk);
  FilterCache cache;
  Expr nan_filter = Col("price") != std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(CachedPositions(t, nan_filter, &cache), Oracle(t, N(nan_filter)));
  EXPECT_EQ(CachedPositions(t, nan_filter, &cache), Oracle(t, N(nan_filter)));
  EXPECT_EQ(cache.stats().filter_full_evals, 16u);
  EXPECT_EQ(cache.stats().filter_copied, 0u);

  Expr repeated = Between(Col("qty"), 1, 4);
  size_t expect = Oracle(t, N(repeated)).size();
  EXPECT_EQ(SelectRows(t, repeated, &cache), expect);
  EXPECT_EQ(SelectRows(t, repeated, &cache), expect);
  EXPECT_EQ(cache.stats().filter_full_evals, 16u + 8);
  EXPECT_EQ(cache.stats().filter_copied, 8u);
}

// A repeat query over unchanged data reuses the earlier candidate lists
// instead of re-reading the column; a later stronger filter is a filter
// of its own and reads the column.
TEST(FilterCacheTest, FilterCachePersistsAcrossQueries) {
  Table t = MakeItems(5 * kChunk);
  FilterCache cache;
  Expr weak = Between(Col("qty"), 1, 4);
  Expr strong = Col("qty") == 3u;
  size_t expect_weak = Oracle(t, N(weak)).size();
  size_t expect_strong = Oracle(t, N(strong)).size();

  // First query: the filter is evaluated for real, once per chunk, and
  // cached.
  EXPECT_EQ(SelectRows(t, weak, &cache), expect_weak);
  EXPECT_EQ(cache.stats().filter_full_evals, 5u);
  EXPECT_EQ(cache.stats().filter_copied, 0u);

  // Same filter again: every chunk's list comes from the cache.
  EXPECT_EQ(SelectRows(t, weak, &cache), expect_weak);
  EXPECT_EQ(cache.stats().filter_full_evals, 5u);  // no new column reads
  EXPECT_EQ(cache.stats().filter_copied, 5u);

  // Strictly stronger filter: evaluated in full.
  EXPECT_EQ(SelectRows(t, strong, &cache), expect_strong);
  EXPECT_EQ(cache.stats().filter_full_evals, 10u);
  EXPECT_EQ(cache.stats().filter_copied, 5u);
  EXPECT_EQ(cache.stats().filter_narrowed, 0u);
}

TEST(FilterCacheTest, FilterCacheInvalidatedByDataVersionAndChunking) {
  auto rs = RowStore::Make({{"qty", FieldType::kU32}}, 3 * kChunk + 8);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < 3 * kChunk; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(1 + i % 5));
  }
  Table t = *Table::FromRowStore(*rs);
  FilterCache cache;
  Expr f = Col("qty") <= 2u;
  size_t before = SelectRows(t, f, &cache);
  EXPECT_EQ(cache.stats().filter_full_evals, 3u);

  // Ingest moves the data version (and the row count): the next query
  // must re-evaluate rather than serve stale lists.
  auto extra = RowStore::Make({{"qty", FieldType::kU32}}, 8);
  ASSERT_TRUE(extra.ok());
  for (size_t i = 0; i < 8; ++i) {
    size_t r = *extra->AppendRow();
    extra->SetU32(r, 0, 2);
  }
  ASSERT_TRUE(t.AppendRows(*extra).ok());

  EXPECT_EQ(SelectRows(t, f, &cache), before + 8);
  EXPECT_EQ(cache.stats().filter_copied, 0u);
  EXPECT_EQ(cache.stats().filter_full_evals, 7u);  // 3 + 4 chunks, all fresh

  // A different chunk size describes different chunks: evaluate afresh.
  EXPECT_EQ(SelectRows(t, f, &cache, 2 * kChunk), before + 8);
  EXPECT_EQ(cache.stats().filter_copied, 0u);
  EXPECT_EQ(cache.stats().filter_full_evals, 9u);
}

// A query cancelled mid-scan fails cleanly and stores only the chunks it
// finished; a later query through the same cache is still exact.
TEST(FilterCacheTest, CancelledSelectLeavesTheCacheExact) {
  // Chunks big enough to split into morsels, whose boundaries poll cancel.
  constexpr size_t kBig = 16 * kChunk;
  Table t = MakeItems(6 * kBig);
  FilterCache cache;
  ScheduleContext sched;
  ExecContext ctx;
  ctx.shared_scans = &cache;
  ctx.sched = &sched;
  ctx.pool = &ThreadPool::Shared();
  ctx.parallelism = 2;
  Expr f = Col("qty") != 2u;
  SelectOp op(std::make_unique<ScanOp>(&t, kBig), f, &ctx, &t, kBig);
  ASSERT_TRUE(op.Open().ok());
  Chunk out;
  for (int i = 0; i < 2; ++i) {
    auto more = op.Next(&out);
    ASSERT_TRUE(more.ok() && *more);
  }
  sched.cancelled.store(true);
  auto aborted = op.Next(&out);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);
  op.Close();
  EXPECT_EQ(cache.stats().filter_full_evals, 2u);

  EXPECT_EQ(SelectRows(t, f, &cache, kBig), Oracle(t, N(f)).size());
  EXPECT_EQ(cache.stats().filter_copied, 2u);     // the finished chunks
  EXPECT_EQ(cache.stats().filter_full_evals, 6u);  // plus the other four
}

TEST(FilterCacheTest, EmptyTableEmitsOneEmptyChunk) {
  auto rs = RowStore::Make({{"k", FieldType::kU32}}, 4);
  ASSERT_TRUE(rs.ok());
  Table t = *Table::FromRowStore(*rs);
  FilterCache cache;
  ExecContext ctx;
  ctx.shared_scans = &cache;
  for (int query = 0; query < 2; ++query) {
    SelectOp op(std::make_unique<ScanOp>(&t, kChunk), Col("k") < 5u, &ctx,
                &t, kChunk);
    ASSERT_TRUE(op.Open().ok());
    Chunk out;
    auto first = op.Next(&out);
    ASSERT_TRUE(first.ok() && *first);
    EXPECT_EQ(out.rows, 0u);
    auto again = op.Next(&out);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(*again);
  }
  EXPECT_EQ(cache.stats().filter_full_evals, 1u);
  EXPECT_EQ(cache.stats().filter_copied, 1u);
}

// A ninth distinct filter is evaluated but not stored, and the first eight
// are never evicted.
TEST(FilterCacheTest, NinthDistinctFilterBypassesTheCache) {
  Table t = MakeItems(4 * kChunk);
  FilterCache cache;
  // `order == k` for distinct k: no two filters are equal.
  auto filter = [](uint32_t k) { return Col("order") == k; };
  for (uint32_t k = 0; k < FilterCache::kMaxFiltersPerTable; ++k) {
    EXPECT_EQ(SelectRows(t, filter(k), &cache), 3u);
  }
  EXPECT_EQ(cache.stats().filter_full_evals, 8u * 4);
  EXPECT_EQ(SelectRows(t, filter(8), &cache), 3u);
  EXPECT_EQ(SelectRows(t, filter(8), &cache), 3u);
  EXPECT_EQ(cache.stats().filter_full_evals, 10u * 4);  // both runs read
  EXPECT_EQ(cache.stats().filter_copied, 0u);
  EXPECT_EQ(SelectRows(t, filter(0), &cache), 3u);
  EXPECT_EQ(cache.stats().filter_copied, 4u);  // the first is still there
}

// --- end-to-end byte-identity ------------------------------------------------

void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.columns[c].u32_values, b.columns[c].u32_values) << what;
    EXPECT_EQ(a.columns[c].i64_values, b.columns[c].i64_values) << what;
    EXPECT_EQ(a.columns[c].f64_values, b.columns[c].f64_values) << what;
    EXPECT_EQ(a.columns[c].str_values, b.columns[c].str_values) << what;
  }
}

/// K analytic plans over one table: overlapping filters (one implying
/// another, which the cache keeps apart), one unfiltered, all with a canonical output
/// order so results compare byte-identically across parallelism.
std::vector<LogicalPlan> MakeWorkload(const Table& t) {
  std::vector<LogicalPlan> plans;
  auto build = [&](std::optional<Expr> filter) {
    QueryBuilder qb(t);
    if (filter.has_value()) qb.Filter(*std::move(filter));
    auto p = qb.GroupByAgg({"qty"}, {Agg::Sum("order"), Agg::Count()})
                 .OrderBy("qty")
                 .Build();
    CCDB_CHECK(p.ok());
    plans.push_back(*std::move(p));
  };
  build(Between(Col("qty"), 1, 4));
  build(Col("qty") == 3u);  // implies the filter above
  build(Col("shipmode") == "MAIL");
  build(std::nullopt);  // unfiltered
  return plans;
}

PlannerOptions TestPlannerOptions(size_t parallelism) {
  PlannerOptions opts;
  opts.exec.parallelism = parallelism;
  opts.exec.scan_chunk_rows = 4096;
  return opts;
}

TEST(SharedScanExecTest, ConcurrentPlansByteIdenticalToIndependent) {
  Table t = MakeItems(120000);
  std::vector<LogicalPlan> plans = MakeWorkload(t);
  for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
    PlannerOptions independent = TestPlannerOptions(parallelism);
    std::vector<QueryResult> expected;
    for (const LogicalPlan& p : plans) {
      expected.push_back(*Execute(p, independent));
    }

    FilterCache cache;
    PlannerOptions shared = independent;
    shared.exec.shared_scans = &cache;
    constexpr int kRounds = 3;  // later rounds hit the earlier lists
    std::vector<std::thread> threads;
    std::vector<Status> errors(plans.size(), Status::Ok());
    for (size_t i = 0; i < plans.size(); ++i) {
      threads.emplace_back([&, i] {
        for (int round = 0; round < kRounds; ++round) {
          auto got = Execute(plans[i], shared);
          if (!got.ok()) {
            errors[i] = got.status();
            return;
          }
          ExpectSameResult(expected[i], *got,
                           "plan " + std::to_string(i) + " round " +
                               std::to_string(round) + " parallelism " +
                               std::to_string(parallelism));
        }
      });
    }
    for (auto& th : threads) th.join();
    for (const Status& s : errors) ASSERT_TRUE(s.ok()) << s.ToString();
    // Three filtered plans, 30 chunks of 4096 rows each, every round; from
    // the second round on, each plan finds its own lists.
    FilterCache::Stats s = cache.stats();
    EXPECT_EQ(s.filter_full_evals + s.filter_narrowed + s.filter_copied,
              3u * 30 * kRounds);
    EXPECT_GE(s.filter_copied, 3u * 30 * (kRounds - 1));
  }
}

TEST(SharedScanExecTest, ServerResultsIdenticalWithSharingOnAndOff) {
  Table t = MakeItems(150000);
  std::vector<LogicalPlan> plans = MakeWorkload(t);
  std::vector<QueryResult> expected;
  for (const LogicalPlan& p : plans) {
    expected.push_back(*Execute(p, TestPlannerOptions(1)));
  }
  for (bool sharing : {false, true}) {
    ServerOptions opts;
    opts.max_inflight = 4;
    opts.max_queue = 64;
    opts.planner = TestPlannerOptions(1);
    opts.shared_scan = sharing;
    Server server(opts);
    constexpr int kPerPlan = 4;
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (size_t i = 0; i < plans.size(); ++i) {
      clients.emplace_back([&, i] {
        QuerySession session(&server);
        for (int q = 0; q < kPerPlan; ++q) {
          auto result = session.Run(plans[i]);
          if (!result.ok() ||
              result->num_rows() != expected[i].num_rows()) {
            failures.fetch_add(1);
            continue;
          }
          for (size_t c = 0; c < expected[i].num_columns(); ++c) {
            if (result->columns[c].u32_values !=
                    expected[i].columns[c].u32_values ||
                result->columns[c].i64_values !=
                    expected[i].columns[c].i64_values) {
              failures.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& th : clients) th.join();
    EXPECT_EQ(failures.load(), 0) << "sharing=" << sharing;
    Server::Stats stats = server.stats();
    const Server::SharedScanStats& sc = stats.shared_scans;
    uint64_t outcomes =
        sc.filter_full_evals + sc.filter_narrowed + sc.filter_copied;
    if (sharing) {
      EXPECT_GT(outcomes, 0u);
      EXPECT_GT(sc.filter_copied, 0u);
    } else {
      EXPECT_EQ(outcomes, 0u);
    }
    EXPECT_EQ(sc.chunks_driven + sc.chunks_fanned_out + sc.overflows, 0u);
  }
}

TEST(SharedScanExecTest, PlannerBindsFilterCacheWithFilterInfo) {
  Table t = MakeItems(20000);
  auto plan = QueryBuilder(t)
                  .Filter(Col("qty") >= 2u && Col("price") < 50.0)
                  .Build();
  ASSERT_TRUE(plan.ok());
  FilterCache cache;
  PlannerOptions opts = TestPlannerOptions(1);
  opts.exec.shared_scans = &cache;
  Planner planner(opts);
  auto physical = planner.Lower(*plan);
  ASSERT_TRUE(physical.ok());
  // The cached Select reports its filter exactly like an uncached one.
  ASSERT_EQ(physical->filters().size(), 1u);
  const FilterNodeInfo& info = physical->filters()[0];
  EXPECT_STREQ(info.node, "select");
  EXPECT_EQ(info.conjuncts.size(), 2u);
  EXPECT_NE(info.normalized.find("qty"), std::string::npos);
  EXPECT_NE(info.normalized.find("price"), std::string::npos);
  auto result = physical->Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(cache.stats().filter_full_evals, 5u);  // 20000 rows / 4096
  auto expected = Execute(*plan, TestPlannerOptions(1));
  ASSERT_TRUE(expected.ok());
  ExpectSameResult(*expected, *result, "cached select");
}

// The cache keys tables on Table::liveness(): a table copy-assigned over a
// cached one at the same address has the same row count, chunking and
// data version (0 for both), so only the token tells them apart.
TEST(SharedScanExecTest, CopyAssignedTableNeverServedStaleLists) {
  const Table before = MakeItems(20000);
  const Table after = MakeItems(20000, /*shift=*/2);
  for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
    Table t = before;
    std::vector<LogicalPlan> plans = MakeWorkload(t);
    FilterCache cache;
    PlannerOptions cached = TestPlannerOptions(parallelism);
    cached.exec.shared_scans = &cache;
    for (const LogicalPlan& p : plans) ASSERT_TRUE(Execute(p, cached).ok());
    ASSERT_EQ(cache.stats().filter_copied, 0u);

    t = after;  // same address, new liveness token
    ASSERT_EQ(t.data_version(), 0u);
    for (size_t i = 0; i < plans.size(); ++i) {
      auto expected = Execute(plans[i], TestPlannerOptions(parallelism));
      auto got = Execute(plans[i], cached);
      ASSERT_TRUE(expected.ok() && got.ok());
      ExpectSameResult(*expected, *got,
                       "plan " + std::to_string(i) + " parallelism " +
                           std::to_string(parallelism));
    }
    // Served from the old table's lists, these would have been copies.
    EXPECT_EQ(cache.stats().filter_copied, 0u) << parallelism;
  }
}

// Only a Select directly over a base-table scan consults the cache; a
// Select over join output (and every Select past the eighth distinct
// filter) evaluates as if no cache were bound.
TEST(SharedScanExecTest, NonScanSelectAndNinthFilterBypassTheCache) {
  Table items = MakeItems(20000);
  auto rs = RowStore::Make({{"id", FieldType::kU32}, {"w", FieldType::kU32}},
                           6001);
  ASSERT_TRUE(rs.ok());
  for (uint32_t i = 0; i < 6000; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, i);
    rs->SetU32(r, 1, i % 7);
  }
  Table orders = *Table::FromRowStore(*rs);

  std::vector<LogicalPlan> plans;
  auto over_join = QueryBuilder(items)
                       .Join(orders, "order", "id")
                       .Filter(Col("w") <= 3u && Col("qty") != 2u)
                       .GroupByAgg({"w"}, {Agg::Sum("qty"), Agg::Count()})
                       .OrderBy("w")
                       .Build();
  ASSERT_TRUE(over_join.ok());
  plans.push_back(*std::move(over_join));
  // Nine distinct scan filters: the ninth is not stored.
  for (uint32_t k = 0; k <= FilterCache::kMaxFiltersPerTable; ++k) {
    auto p = QueryBuilder(items)
                 .Filter(Between(Col("order"), 100 * k, 100 * k + 49))
                 .GroupByAgg({"qty"}, {Agg::Sum("order"), Agg::Count()})
                 .OrderBy("qty")
                 .Build();
    ASSERT_TRUE(p.ok());
    plans.push_back(*std::move(p));
  }

  for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
    FilterCache cache;
    PlannerOptions cached = TestPlannerOptions(parallelism);
    cached.exec.shared_scans = &cache;
    for (int round = 0; round < 2; ++round) {
      for (size_t i = 0; i < plans.size(); ++i) {
        auto expected = Execute(plans[i], TestPlannerOptions(parallelism));
        auto got = Execute(plans[i], cached);
        ASSERT_TRUE(expected.ok() && got.ok());
        ExpectSameResult(*expected, *got,
                         "plan " + std::to_string(i) + " round " +
                             std::to_string(round) + " parallelism " +
                             std::to_string(parallelism));
        if (i == 0) {
          // The Select over the join never touches the cache: the counts
          // are those of the scan filters of earlier rounds only.
          FilterCache::Stats s = cache.stats();
          EXPECT_EQ(s.filter_full_evals + s.filter_narrowed + s.filter_copied,
                    round == 0 ? 0u : 9u * 5);
        }
      }
    }
    // 5 chunks per scan. Round 0 evaluates all nine filters; round 1
    // copies the first eight and re-evaluates the ninth.
    FilterCache::Stats s = cache.stats();
    EXPECT_EQ(s.filter_full_evals, 9u * 5 + 5u) << parallelism;
    EXPECT_EQ(s.filter_copied, 8u * 5) << parallelism;
    EXPECT_EQ(s.filter_narrowed, 0u) << parallelism;
  }
}

}  // namespace
}  // namespace ccdb
