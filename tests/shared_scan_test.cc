// Shared scans through the filter-result cache: ExprSubsumes soundness
// against oracle evaluation (the subsumption matrix: Eq⊂Range, In⊂In,
// Between⊂Range, negated leaves, And/Or refinements, f64 open/closed
// endpoints and NaN, strings, and non-subsuming pairs), the FilterCache
// behind SelectOp (equivalent filters reuse a list, stronger ones narrow
// it, lists survive across queries until the data version or chunking
// moves, a cancelled query stores only the chunks it finished, tables are
// keyed on their liveness token, at most 8 filters per table, Selects
// over non-scan children bypass it), and end-to-end byte-identity: plans
// with the cache bound produce exactly the cache-free results at
// parallelism {1, 2, 8}, with and without the serving layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
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
// the IEEE semantics subsumption must respect), shipmode cycles
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

bool IsSubset(const std::vector<uint32_t>& small,
              const std::vector<uint32_t>& big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

// --- ExprSubsumes: the subsumption matrix ------------------------------------

TEST(ExprSubsumesTest, MatrixMatchesOracle) {
  Table t = MakeItems(3000);
  double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* what;
    Expr a, b;
    bool expect;  // does ExprSubsumes(a, b) prove a => b?
  };
  std::vector<Case> cases;
  auto add = [&](const char* what, Expr a, Expr b, bool expect) {
    cases.push_back({what, std::move(a), std::move(b), expect});
  };
  // Eq within a range.
  add("eq in between", Col("qty") == 3u, Between(Col("qty"), 1, 4), true);
  add("eq in ordering", Col("qty") == 3u, Col("qty") >= 2u, true);
  // In-list within a superset In-list.
  add("in in in", InU32(Col("qty"), {2, 4}), InU32(Col("qty"), {1, 2, 4}),
      true);
  // Between within a wider range.
  add("between in between", Between(Col("qty"), 2, 3),
      Between(Col("qty"), 1, 4), true);
  add("between in ordering", Between(Col("qty"), 2, 3), Col("qty") >= 2u,
      true);
  // Integer closed-interval tightening: qty > 3 is exactly qty >= 4, so a
  // range starting at 4 is contained in it.
  add("int tightening", Between(Col("qty"), 4, 9), Col("qty") > 3u, true);
  // Negated leaves: smaller complement set implies larger complement hole.
  add("negated in", !InU32(Col("qty"), {1, 2, 3}), !InU32(Col("qty"), {1, 2}),
      true);
  add("negated between", !Between(Col("qty"), 1, 4),
      !Between(Col("qty"), 2, 3), true);
  add("ne from eq-other", Col("qty") == 2u, Col("qty") != 3u, true);
  // And refinement: the conjunction's intersection proves what no single
  // conjunct does.
  add("and intersection", Col("qty") > 1u && Col("qty") < 4u,
      Between(Col("qty"), 2, 3), true);
  add("and one-conjunct", Between(Col("qty"), 2, 3) && Col("order") < 100u,
      Between(Col("qty"), 1, 4), true);
  // Or on either side.
  add("or of eqs into between", Col("qty") == 2u || Col("qty") == 3u,
      Between(Col("qty"), 2, 3), true);
  add("between into or union", Between(Col("qty"), 2, 4),
      Col("qty") == 2u || Col("qty") == 3u || Col("qty") == 4u, true);
  // f64: endpoint openness matters.
  add("f64 lt in le", Col("price") < 20.0, Col("price") <= 20.0, true);
  add("f64 le NOT in lt", Col("price") <= 20.0, Col("price") < 20.0, false);
  add("f64 between in ge", Between(Col("price"), 12.0, 18.0),
      Col("price") >= 10.0, true);
  // != matches NaN as well as every other value, so any NaN-free range
  // implies it.
  add("f64 between in ne", Between(Col("price"), 12.0, 18.0),
      Col("price") != 11.0, true);
  // Strings.
  add("str eq in in", Col("shipmode") == "MAIL",
      InStr(Col("shipmode"), {"MAIL", "AIR"}), true);
  add("str eq in ne-other", Col("shipmode") == "MAIL",
      Col("shipmode") != "AIR", true);
  add("str ne in ne", !InStr(Col("shipmode"), {"AIR", "SHIP"}),
      Col("shipmode") != "AIR", true);
  // Non-subsuming pairs: the checker must say "no proof".
  add("wider not in narrower", Between(Col("qty"), 1, 4), Col("qty") == 3u,
      false);
  add("different columns", Col("qty") == 3u, Col("order") == 3u, false);
  add("different domains", Col("qty") == 3u, Col("price") >= 0.0, false);
  add("overlapping ins", InU32(Col("qty"), {1, 2}), InU32(Col("qty"), {2, 3}),
      false);
  add("str eq other", Col("shipmode") == "MAIL", Col("shipmode") == "AIR",
      false);
  // NaN literals are unconvertible: no proof either way, even reflexively.
  add("nan literal", Col("price") != nan, Col("price") != nan, false);

  for (const Case& c : cases) {
    Expr a = N(c.a), b = N(c.b);
    EXPECT_EQ(ExprSubsumes(a, b), c.expect)
        << c.what << ": " << a.ToString() << "  =>  " << b.ToString();
    if (c.expect) {
      // A claimed implication must hold on real data (NaN rows included).
      EXPECT_TRUE(IsSubset(Oracle(t, a), Oracle(t, b))) << c.what;
    }
  }
}

// Every true answer across a pool of assorted filters must be sound
// against oracle evaluation — in both orders, including self-pairs.
TEST(ExprSubsumesTest, PairwiseSoundnessSweep) {
  Table t = MakeItems(4000);
  std::vector<Expr> pool;
  for (Expr& e : std::vector<Expr>{
           Col("qty") == 3u, Col("qty") != 3u, Col("qty") >= 2u,
           Col("qty") < 4u, Between(Col("qty"), 2, 3),
           !Between(Col("qty"), 2, 3), InU32(Col("qty"), {1, 3, 5}),
           !InU32(Col("qty"), {2, 4}), Col("qty") > 1u && Col("qty") <= 3u,
           Col("qty") == 1u || Col("qty") == 5u, Col("price") < 40.0,
           Col("price") <= 40.0, Col("price") != 40.0,
           Between(Col("price"), 15.0, 30.0), !Between(Col("price"), 15.0, 30.0),
           Col("shipmode") == "MAIL", Col("shipmode") != "MAIL",
           InStr(Col("shipmode"), {"MAIL", "AIR"}),
           !InStr(Col("shipmode"), {"TRUCK"}),
           Col("qty") >= 2u && Col("price") < 50.0}) {
    pool.push_back(N(std::move(e)));
  }
  std::vector<std::vector<uint32_t>> rows;
  rows.reserve(pool.size());
  for (const Expr& e : pool) rows.push_back(Oracle(t, e));
  size_t proofs = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = 0; j < pool.size(); ++j) {
      if (!ExprSubsumes(pool[i], pool[j])) continue;
      ++proofs;
      EXPECT_TRUE(IsSubset(rows[i], rows[j]))
          << pool[i].ToString() << "  =>  " << pool[j].ToString();
    }
  }
  // The pool is built to contain implications; a checker that never proves
  // anything would pass the soundness sweep vacuously.
  EXPECT_GT(proofs, pool.size());  // at least self-pairs plus real pairs
}

// The identity candidate-list sharing rests on: narrowing the weaker
// filter's survivors by the stronger filter gives exactly the stronger
// filter's survivors.
TEST(ExprSubsumesTest, NarrowingEqualsDirectEvaluation) {
  Table t = MakeItems(5000);
  Chunk chunk = WholeTable(t);
  struct Pair {
    Expr strong, weak;
  };
  std::vector<Pair> pairs;
  pairs.push_back({N(Col("qty") == 3u), N(Between(Col("qty"), 1, 4))});
  pairs.push_back({N(Between(Col("price"), 15.0, 30.0)),
                   N(Col("price") >= 12.0)});
  pairs.push_back({N(Col("shipmode") == "MAIL"),
                   N(InStr(Col("shipmode"), {"MAIL", "AIR"}))});
  for (const Pair& p : pairs) {
    ASSERT_TRUE(ExprSubsumes(p.strong, p.weak)) << p.strong.ToString();
    auto weak_rows = EvalFilterPositions(chunk, p.weak, nullptr);
    ASSERT_TRUE(weak_rows.ok());
    auto narrowed =
        NarrowFilterPositions(chunk, p.strong, *weak_rows, nullptr);
    ASSERT_TRUE(narrowed.ok());
    auto direct = EvalFilterPositions(chunk, p.strong, nullptr);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*narrowed, *direct) << p.strong.ToString();
  }
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

TEST(FilterCacheTest, EquivalentFiltersCopyTheCandidateList) {
  Table t = MakeItems(6 * kChunk);
  FilterCache cache;
  // Same predicate, different syntax: a conjunction of bounds vs Between.
  Expr f1 = Col("qty") >= 2u && Col("qty") <= 3u;
  Expr f2 = Between(Col("qty"), 2, 3);
  ASSERT_TRUE(ExprSubsumes(N(f1), N(f2)) && ExprSubsumes(N(f2), N(f1)));
  size_t expect = Oracle(t, N(f1)).size();
  EXPECT_EQ(SelectRows(t, f1, &cache), expect);
  EXPECT_EQ(SelectRows(t, f2, &cache), expect);
  FilterCache::Stats s = cache.stats();
  EXPECT_EQ(s.filter_full_evals, 6u);  // one of the pair, once per chunk
  EXPECT_EQ(s.filter_copied, 6u);      // the other reuses its list
  EXPECT_EQ(s.filter_narrowed, 0u);
}

// A repeat query over unchanged data reuses the earlier candidate lists
// instead of re-reading the column, and a later stronger filter narrows
// them.
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

  // Strictly stronger filter: narrowed from the cached survivors.
  EXPECT_EQ(SelectRows(t, strong, &cache), expect_strong);
  EXPECT_EQ(cache.stats().filter_full_evals, 5u);
  EXPECT_EQ(cache.stats().filter_narrowed, 5u);
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
  // `order == k` for distinct k: no filter subsumes another.
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

/// K analytic plans over one table: overlapping filters (two in a
/// subsumption relation), one unfiltered, all with a canonical output
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
  build(Col("qty") == 3u);  // subsumed by the filter above
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
  // Nine mutually non-subsuming scan filters: the ninth is not stored.
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
