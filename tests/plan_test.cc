// The composable query API: builder validation, logical->physical lowering,
// candidate-list pipelining (pipelined == materialized), per-node cost-model
// planning, and the candidate-list BAT-algebra kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <tuple>

#include "algo/bat_algebra.h"
#include "exec/plan.h"
#include "model/planner.h"
#include "util/rng.h"

namespace ccdb {
namespace {

RowStore MakeItems(size_t n) {
  auto rs = RowStore::Make(
      {
          {"order", FieldType::kU32},
          {"qty", FieldType::kU32},
          {"price", FieldType::kF64},
          {"shipmode", FieldType::kChar10},
      },
      n);
  CCDB_CHECK(rs.ok());
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP"};
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i / 3));
    rs->SetU32(r, 1, static_cast<uint32_t>(1 + i % 5));
    rs->SetF64(r, 2, 10.0 + static_cast<double>(i));
    const char* m = modes[i % 4];
    rs->SetBytes(r, 3, m, strlen(m));
  }
  return *std::move(rs);
}

Table MakeOrders(size_t n) {
  auto rs = RowStore::Make(
      {{"order_id", FieldType::kU32}, {"prio", FieldType::kU32}}, n);
  CCDB_CHECK(rs.ok());
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
    rs->SetU32(r, 1, static_cast<uint32_t>(i % 7));
  }
  return *Table::FromRowStore(*rs);
}

// --- builder validation ------------------------------------------------------

TEST(QueryBuilderTest, UnknownColumnIsNotFound) {
  Table t = *Table::FromRowStore(MakeItems(10));
  auto plan = QueryBuilder(t).Filter(Between(Col("nope"), 0u, 1u)).Build();
  EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
}

TEST(QueryBuilderTest, PredicateTypeMismatch) {
  Table t = *Table::FromRowStore(MakeItems(10));
  // A u32 range on an f64 column.
  auto p1 = QueryBuilder(t).Filter(Between(Col("price"), 0u, 1u)).Build();
  EXPECT_EQ(p1.status().code(), StatusCode::kInvalidArgument);
  // An f64 range on a u32 column.
  auto p2 = QueryBuilder(t).Filter(Between(Col("qty"), 0.0, 1.0)).Build();
  EXPECT_EQ(p2.status().code(), StatusCode::kInvalidArgument);
  // String equality on a u32 column.
  auto p3 = QueryBuilder(t).Filter(Col("qty") == "x").Build();
  EXPECT_EQ(p3.status().code(), StatusCode::kInvalidArgument);
  // String equality on an encoded string column is fine.
  auto p4 = QueryBuilder(t).Filter(Col("shipmode") == "AIR").Build();
  EXPECT_TRUE(p4.ok());
}

TEST(QueryBuilderTest, JoinKeyMustBeU32) {
  Table items = *Table::FromRowStore(MakeItems(10));
  Table orders = MakeOrders(5);
  auto plan =
      QueryBuilder(items).Join(orders, "price", "order_id").Build();
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  auto plan2 =
      QueryBuilder(items).Join(orders, "order", "order_id").Build();
  EXPECT_TRUE(plan2.ok());
}

TEST(QueryBuilderTest, AmbiguousColumnAfterSelfJoin) {
  Table items = *Table::FromRowStore(MakeItems(10));
  // items x items: every column name collides; referencing one is an error.
  auto plan = QueryBuilder(items)
                  .Join(items, "order", "order")
                  .Filter(Between(Col("qty"), 0u, 5u))
                  .Build();
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("ambiguous"), std::string::npos);
}

TEST(QueryBuilderTest, EmptyProjectAndBadAggregates) {
  Table t = *Table::FromRowStore(MakeItems(10));
  auto p1 = QueryBuilder(t).Project({}).Build();
  EXPECT_EQ(p1.status().code(), StatusCode::kInvalidArgument);
  // Grouping on an f64 column.
  auto p2 = QueryBuilder(t)
                .GroupByAgg({"price"}, {Agg::Sum("qty"), Agg::Count()})
                .Build();
  EXPECT_EQ(p2.status().code(), StatusCode::kInvalidArgument);
  // Summing an f64 column.
  auto p3 = QueryBuilder(t)
                .GroupByAgg({"qty"}, {Agg::Sum("price"), Agg::Count()})
                .Build();
  EXPECT_EQ(p3.status().code(), StatusCode::kInvalidArgument);
  // Grouping on an encoded string column is fine.
  auto p4 = QueryBuilder(t)
                .GroupByAgg({"shipmode"}, {Agg::Sum("qty"), Agg::Count()})
                .Build();
  EXPECT_TRUE(p4.ok());
}

TEST(QueryBuilderTest, OutputSchemaAndToString) {
  Table items = *Table::FromRowStore(MakeItems(12));
  auto plan = QueryBuilder(items)
                  .Filter(Col("shipmode") == "MAIL")
                  .GroupByAgg({"shipmode"}, {Agg::Sum("qty"), Agg::Count()})
                  .OrderBy("sum", true)
                  .Limit(3)
                  .Build();
  ASSERT_TRUE(plan.ok());
  const auto& schema = plan->output_schema();
  ASSERT_EQ(schema.size(), 3u);
  EXPECT_EQ(schema[0].name, "shipmode");
  EXPECT_EQ(schema[0].type, PhysType::kStr);
  EXPECT_EQ(schema[1].name, "sum");
  EXPECT_EQ(schema[1].type, PhysType::kI64);
  EXPECT_EQ(schema[2].name, "count");
  std::string s = plan->ToString();
  EXPECT_NE(s.find("Limit"), std::string::npos);
  EXPECT_NE(s.find("GroupByAgg"), std::string::npos);
  EXPECT_NE(s.find("Scan"), std::string::npos);
}

// --- execution vs hand-composed baselines ------------------------------------

TEST(PlanExecTest, SelectProjectMatchesBatAlgebra) {
  Rng rng(11);
  constexpr size_t kN = 5000;
  auto rs = RowStore::Make({{"a", FieldType::kU32}, {"b", FieldType::kU32}},
                           kN);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < kN; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(rng.NextBelow(1000)));
    rs->SetU32(r, 1, static_cast<uint32_t>(i));
  }
  Table t = *Table::FromRowStore(*rs);

  auto plan = QueryBuilder(t)
                  .Filter(Between(Col("a"), 100u, 300u))
                  .Project({"b"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto result = Execute(*plan);
  ASSERT_TRUE(result.ok());

  // Baseline: BatSelect on the a-BAT, positional BatJoin to reconstruct b.
  auto sel = BatSelect(t.column_bat(0), 100, 300);
  ASSERT_TRUE(sel.ok());
  auto cand = Bat::Make(sel->head(), sel->head());
  ASSERT_TRUE(cand.ok());
  auto b = BatJoin(*cand, t.column_bat(1));
  ASSERT_TRUE(b.ok());

  const auto& got = result->columns[0].u32_values;
  ASSERT_EQ(got.size(), b->size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], b->tail().Span<uint32_t>()[i]);
  }
}

TEST(PlanExecTest, SelectJoinAggregateMatchesOracle) {
  constexpr size_t kItems = 3000;
  RowStore rows = MakeItems(kItems);
  Table items = *Table::FromRowStore(rows);
  Table orders = MakeOrders(kItems / 3 + 1);

  // SELECT prio, SUM(qty) FROM items JOIN orders ON order = order_id
  // WHERE shipmode = 'MAIL' GROUP BY prio;
  auto plan = QueryBuilder(items)
                  .Filter(Col("shipmode") == "MAIL")
                  .Join(orders, "order", "order_id")
                  .GroupByAgg({"prio"}, {Agg::Sum("qty"), Agg::Count()})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto result = Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Row-at-a-time oracle.
  std::map<uint32_t, uint64_t> expect_sum;
  std::map<uint32_t, uint64_t> expect_count;
  for (size_t i = 0; i < kItems; ++i) {
    if (i % 4 != 0) continue;  // shipmode == "MAIL"
    uint32_t order = static_cast<uint32_t>(i / 3);
    uint32_t prio = order % 7;
    expect_sum[prio] += 1 + i % 5;
    expect_count[prio] += 1;
  }

  const auto& prio = result->columns[*result->ColumnIndex("prio")].u32_values;
  const auto& sum = result->columns[*result->ColumnIndex("sum")].i64_values;
  const auto& count =
      result->columns[*result->ColumnIndex("count")].i64_values;
  ASSERT_EQ(prio.size(), expect_sum.size());
  for (size_t g = 0; g < prio.size(); ++g) {
    EXPECT_EQ(static_cast<uint64_t>(sum[g]), expect_sum[prio[g]]) << prio[g];
    EXPECT_EQ(static_cast<uint64_t>(count[g]), expect_count[prio[g]]);
  }
}

TEST(PlanExecTest, OrderByLimitOffset) {
  Table items = *Table::FromRowStore(MakeItems(40));
  auto build = [&](bool desc, size_t limit, size_t offset) {
    auto plan = QueryBuilder(items)
                    .GroupByAgg({"shipmode"}, {Agg::Sum("qty"), Agg::Count()})
                    .OrderBy("sum", desc)
                    .Limit(limit, offset)
                    .Build();
    CCDB_CHECK(plan.ok());
    auto r = Execute(*plan);
    CCDB_CHECK(r.ok());
    return *std::move(r);
  };
  QueryResult top = build(true, 2, 0);
  ASSERT_EQ(top.num_rows(), 2u);
  EXPECT_GE(top.columns[1].i64_values[0], top.columns[1].i64_values[1]);
  QueryResult rest = build(true, 2, 2);
  ASSERT_EQ(rest.num_rows(), 2u);
  // Offset continues where the first page ended.
  EXPECT_GE(top.columns[1].i64_values[1], rest.columns[1].i64_values[0]);
  QueryResult asc = build(false, 4, 0);
  ASSERT_EQ(asc.num_rows(), 4u);
  EXPECT_LE(asc.columns[1].i64_values[0], asc.columns[1].i64_values[3]);
}

TEST(PlanExecTest, EmptySelectionStillTyped) {
  Table items = *Table::FromRowStore(MakeItems(20));
  auto plan = QueryBuilder(items)
                  .Filter(Col("shipmode") == "PIGEON")
                  .Project({"qty", "shipmode"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto result = Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
  ASSERT_EQ(result->num_columns(), 2u);
  EXPECT_EQ(result->columns[0].name, "qty");
  EXPECT_EQ(result->columns[1].type, PhysType::kStr);
}

// --- candidate-list equivalence ----------------------------------------------

TEST(PlanExecTest, PipelinedEqualsMaterialized) {
  constexpr size_t kItems = 10000;
  Table items = *Table::FromRowStore(MakeItems(kItems));
  Table orders = MakeOrders(kItems / 3 + 1);
  auto build = [&]() {
    auto plan = QueryBuilder(items)
                    .Filter(Between(Col("qty"), 2u, 4u))
                    .Join(orders, "order", "order_id")
                    .GroupByAgg({"prio"}, {Agg::Sum("qty"), Agg::Count()})
                    .OrderBy("prio")
                    .Build();
    CCDB_CHECK(plan.ok());
    return *std::move(plan);
  };
  // Whole-BAT-at-a-time (full materialization, the paper's model) ...
  PlannerOptions mat;
  mat.exec.scan_chunk_rows = SIZE_MAX;
  auto materialized = Execute(build(), mat);
  ASSERT_TRUE(materialized.ok());
  // ... vs small chunks pipelined through select and join.
  for (size_t chunk : {64u, 257u, 4096u}) {
    PlannerOptions piped;
    piped.exec.scan_chunk_rows = chunk;
    auto pipelined = Execute(build(), piped);
    ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
    ASSERT_EQ(pipelined->num_columns(), materialized->num_columns());
    ASSERT_EQ(pipelined->num_rows(), materialized->num_rows()) << chunk;
    for (size_t c = 0; c < materialized->num_columns(); ++c) {
      EXPECT_EQ(pipelined->columns[c].u32_values,
                materialized->columns[c].u32_values);
      EXPECT_EQ(pipelined->columns[c].i64_values,
                materialized->columns[c].i64_values);
    }
  }
}

// --- per-node cost-model planning --------------------------------------------

TEST(PlannerTest, StrategySwitchesWithInnerCardinality) {
  // fact JOIN small (inner C=2000) JOIN big (inner C=1<<20): the model must
  // pick different physical plans for the two join nodes.
  constexpr size_t kFact = 20000, kSmall = 2000, kBig = 1 << 20;
  Rng rng(5);
  auto fact_rs = RowStore::Make(
      {{"sk", FieldType::kU32}, {"bk", FieldType::kU32}}, kFact);
  ASSERT_TRUE(fact_rs.ok());
  for (size_t i = 0; i < kFact; ++i) {
    size_t r = *fact_rs->AppendRow();
    fact_rs->SetU32(r, 0, static_cast<uint32_t>(rng.NextBelow(kSmall)));
    fact_rs->SetU32(r, 1, static_cast<uint32_t>(rng.NextBelow(kBig)));
  }
  Table fact = *Table::FromRowStore(*fact_rs);
  auto dim = [](size_t n, const char* key) {
    auto rs = RowStore::Make({{key, FieldType::kU32}}, n);
    CCDB_CHECK(rs.ok());
    for (size_t i = 0; i < n; ++i) {
      size_t r = *rs->AppendRow();
      rs->SetU32(r, 0, static_cast<uint32_t>(i));
    }
    return *Table::FromRowStore(*rs);
  };
  Table small = dim(kSmall, "sid");
  Table big = dim(kBig, "bid");

  auto plan = QueryBuilder(fact)
                  .Join(small, "sk", "sid")
                  .Join(big, "bk", "bid")
                  .Build();
  ASSERT_TRUE(plan.ok());
  // Pinned to the static GenericX86 profile: the assertion below is about
  // the *model's* bits-vs-cardinality monotonicity at these (cache-sized)
  // relations, which the measured host profile's much larger TLB/L2
  // legitimately flattens.
  PlannerOptions opts;
  opts.profile = MachineProfile::GenericX86();
  Planner planner(opts);
  auto physical = planner.Lower(*plan);
  ASSERT_TRUE(physical.ok());
  auto result = physical->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), kFact);  // both joins hit exactly once

  ASSERT_EQ(physical->joins().size(), 2u);
  const JoinNodeInfo& j_small = physical->joins()[0];
  const JoinNodeInfo& j_big = physical->joins()[1];
  EXPECT_EQ(j_small.inner_cardinality, kSmall);
  EXPECT_EQ(j_big.inner_cardinality, kBig);
  // The cost model prescribes more radix bits as the inner relation grows
  // past the cache sizes; at 2000 vs 1M tuples the plans must differ.
  EXPECT_LT(j_small.plan.bits, j_big.plan.bits);
  EXPECT_EQ(j_small.stats.result_count + j_big.stats.result_count,
            2 * kFact);
}

TEST(PlannerTest, InnerSelectionChangesJoinPlan) {
  // The same join planned at full vs filtered inner cardinality: the
  // per-node planner must consult the model with the *actual* (post-
  // selection) cardinality, not the base table's.
  constexpr size_t kN = 1 << 20;
  Table fact = MakeOrders(5000);  // order_id 0..4999
  auto rs = RowStore::Make({{"id", FieldType::kU32}}, kN);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < kN; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
  }
  Table big = *Table::FromRowStore(*rs);

  auto unfiltered = QueryBuilder(fact).Join(big, "order_id", "id").Build();
  ASSERT_TRUE(unfiltered.ok());
  QueryBuilder inner(big);
  inner.Filter(Between(Col("id"), 0u, 999u));
  auto filtered =
      QueryBuilder(fact).Join(std::move(inner), "order_id", "id").Build();
  ASSERT_TRUE(filtered.ok());

  // Static profile for the same reason as StrategySwitchesWithInnerCardinality.
  PlannerOptions opts;
  opts.profile = MachineProfile::GenericX86();
  Planner planner(opts);
  auto p1 = planner.Lower(*unfiltered);
  auto p2 = planner.Lower(*filtered);
  ASSERT_TRUE(p1.ok() && p2.ok());
  ASSERT_TRUE(p1->Execute().ok());
  ASSERT_TRUE(p2->Execute().ok());
  EXPECT_EQ(p1->joins()[0].inner_cardinality, kN);
  EXPECT_EQ(p2->joins()[0].inner_cardinality, 1000u);
  EXPECT_LT(p2->joins()[0].plan.bits, p1->joins()[0].plan.bits);
  EXPECT_FALSE(p1->ExplainJoins().empty());
}

// --- candidate-list kernels --------------------------------------------------

TEST(CandidateKernelTest, SelectPositions) {
  Bat b = Bat::DenseTail(Column::U32({5, 10, 15, 20, 25, 30}));
  std::vector<oid_t> cands = {1, 3, 5};
  auto pos = BatSelectPositions(b, 10, 25, cands);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(*pos, (std::vector<uint32_t>{0, 1}));  // oids 1 (10) and 3 (20)
  // Dense variant over [2, 5): values 15, 20, 25.
  auto dense = BatSelectPositionsDense(b, 20, 99, /*base=*/2, /*count=*/3);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(*dense, (std::vector<uint32_t>{1, 2}));
  // Out-of-range candidates are errors, not skips.
  std::vector<oid_t> bad = {99};
  EXPECT_EQ(BatSelectPositions(b, 0, 99, bad).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(BatSelectPositionsDense(b, 0, 99, 4, 3).status().code(),
            StatusCode::kOutOfRange);
}

TEST(CandidateKernelTest, Project) {
  Bat b = Bat::DenseTail(Column::U16({7, 8, 9, 10}));
  std::vector<oid_t> cands = {3, 0, 3};
  auto proj = BatProject(b, cands);
  ASSERT_TRUE(proj.ok());
  ASSERT_EQ(proj->size(), 3u);
  EXPECT_TRUE(proj->head().is_void());  // fresh dense head: free OIDs
  auto tails = proj->tail().Span<uint32_t>();
  EXPECT_EQ(tails[0], 10u);
  EXPECT_EQ(tails[1], 7u);
  EXPECT_EQ(tails[2], 10u);
  // Non-integral tail rejected.
  Bat f = Bat::DenseTail(Column::F64({1.0}));
  std::vector<oid_t> zero = {0};
  EXPECT_EQ(BatProject(f, zero).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlanExecTest, LazyI64ColumnsMaterialize) {
  auto rs = RowStore::Make({{"k", FieldType::kU32}, {"big", FieldType::kI64}},
                           6);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < 6; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
    rs->SetI64(r, 1, static_cast<int64_t>(i) * 1'000'000'000'000 - 3);
  }
  Table t = *Table::FromRowStore(*rs);
  auto plan = QueryBuilder(t)
                  .Filter(Between(Col("k"), 2u, 4u))
                  .OrderBy("big", /*descending=*/true)
                  .Project({"big"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto result = Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->columns[0].type, PhysType::kI64);
  EXPECT_EQ(result->columns[0].i64_values,
            (std::vector<int64_t>{3'999'999'999'997, 2'999'999'999'997,
                                  1'999'999'999'997}));
}

TEST(PlanExecTest, GroupByManyDistinctKeys) {
  // Exercises the group table's rehash growth (far beyond the initial
  // 1024 buckets) and checks totals against a closed form.
  constexpr size_t kN = 100000;
  auto rs = RowStore::Make({{"g", FieldType::kU32}, {"v", FieldType::kU32}},
                           kN);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < kN; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i / 2));  // 50000 groups
    rs->SetU32(r, 1, 1);
  }
  Table t = *Table::FromRowStore(*rs);
  auto plan = QueryBuilder(t)
                  .GroupByAgg({"g"}, {Agg::Sum("v"), Agg::Count()})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto result = Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), kN / 2);
  const auto& sums = result->columns[1].i64_values;
  for (int64_t s : sums) ASSERT_EQ(s, 2);
}

// --- parallel execution ------------------------------------------------------

// Canonical form for group-by output (parallel shard merging may reorder
// groups): rows sorted by group key.
std::vector<std::tuple<uint32_t, int64_t, int64_t>> CanonGroups(
    const QueryResult& r) {
  std::vector<std::tuple<uint32_t, int64_t, int64_t>> rows;
  for (size_t i = 0; i < r.num_rows(); ++i) {
    rows.emplace_back(r.columns[0].u32_values[i], r.columns[1].i64_values[i],
                      r.columns[2].i64_values[i]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ParallelExecTest, SelectAndJoinAreByteIdenticalAtAnyParallelism) {
  constexpr size_t kItems = 50000;
  Table items = *Table::FromRowStore(MakeItems(kItems));
  Table orders = MakeOrders(kItems / 3 + 1);
  auto build = [&]() {
    auto plan = QueryBuilder(items)
                    .Filter(Between(Col("qty"), 2u, 4u))
                    .Join(orders, "order", "order_id")
                    .Project({"qty", "prio"})
                    .Build();
    CCDB_CHECK(plan.ok());
    return *std::move(plan);
  };
  PlannerOptions serial;
  serial.exec.scan_chunk_rows = 8192;  // several chunks
  serial.exec.parallelism = 1;
  auto expect = Execute(build(), serial);
  ASSERT_TRUE(expect.ok());
  ASSERT_GT(expect->num_rows(), 0u);
  for (size_t par : {2u, 8u}) {
    PlannerOptions opts = serial;
    opts.exec.parallelism = par;
    auto got = Execute(build(), opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Morsel and partition results concatenate in deterministic order:
    // select and join output must match the serial run row for row.
    ASSERT_EQ(got->num_rows(), expect->num_rows()) << par;
    for (size_t c = 0; c < expect->num_columns(); ++c) {
      EXPECT_EQ(got->columns[c].u32_values, expect->columns[c].u32_values)
          << "parallelism " << par;
    }
  }
}

TEST(ParallelExecTest, GroupByAndOrderByMatchSerialModuloRowOrder) {
  constexpr size_t kItems = 60000;
  Table items = *Table::FromRowStore(MakeItems(kItems));
  Table orders = MakeOrders(kItems / 3 + 1);
  auto run = [&](size_t par, size_t chunk) {
    auto plan = QueryBuilder(items)
                    .Filter(Col("shipmode") == "MAIL")
                    .Join(orders, "order", "order_id")
                    .GroupByAgg({"prio"}, {Agg::Sum("qty"), Agg::Count()})
                    .Build();
    CCDB_CHECK(plan.ok());
    PlannerOptions opts;
    opts.exec.scan_chunk_rows = chunk;
    opts.exec.parallelism = par;
    auto r = Execute(*plan, opts);
    CCDB_CHECK(r.ok());
    return *std::move(r);
  };
  auto expect = CanonGroups(run(1, 8192));
  ASSERT_FALSE(expect.empty());
  for (size_t par : {2u, 8u}) {
    EXPECT_EQ(CanonGroups(run(par, 8192)), expect) << par;
    EXPECT_EQ(CanonGroups(run(par, SIZE_MAX)), expect) << par;
  }
  // OrderBy pins the row order completely: results must be byte-identical
  // even at parallelism 8 (parallel merge sort reproduces stable_sort).
  auto ordered = [&](size_t par) {
    auto plan = QueryBuilder(items)
                    .GroupByAgg({"order"}, {Agg::Sum("qty"), Agg::Count()})
                    .OrderBy("sum", /*descending=*/true)
                    .OrderBy("order")
                    .Build();
    CCDB_CHECK(plan.ok());
    PlannerOptions opts;
    opts.exec.scan_chunk_rows = 8192;
    opts.exec.parallelism = par;
    auto r = Execute(*plan, opts);
    CCDB_CHECK(r.ok());
    return *std::move(r);
  };
  QueryResult base = ordered(1);
  QueryResult par8 = ordered(8);
  ASSERT_EQ(par8.num_rows(), base.num_rows());
  EXPECT_EQ(par8.columns[0].u32_values, base.columns[0].u32_values);
  EXPECT_EQ(par8.columns[1].i64_values, base.columns[1].i64_values);
}

TEST(ParallelExecTest, EmptyAndSingleRowInputs) {
  for (size_t rows : {0u, 1u}) {
    Table items = *Table::FromRowStore(MakeItems(rows));
    Table orders = MakeOrders(5);
    for (size_t par : {1u, 2u, 8u}) {
      auto plan = QueryBuilder(items)
                      .Filter(Between(Col("qty"), 0u, 100u))
                      .Join(orders, "order", "order_id")
                      .GroupByAgg({"prio"}, {Agg::Sum("qty"), Agg::Count()})
                      .Build();
      ASSERT_TRUE(plan.ok());
      PlannerOptions opts;
      opts.exec.parallelism = par;
      auto r = Execute(*plan, opts);
      ASSERT_TRUE(r.ok()) << rows << " rows, parallelism " << par << ": "
                          << r.status().ToString();
      EXPECT_EQ(r->num_rows(), rows);  // 0 stays 0; the 1-row item matches
    }
  }
}

TEST(ParallelExecTest, InnerIsClusteredOncePerJoin) {
  // Many probe chunks over a radix-planned join: the inner build must
  // happen exactly once at Open(), not per probe chunk (the old defect),
  // and every chunk dispatches partition tasks.
  constexpr size_t kN = 1 << 17;
  Rng rng(9);
  auto rs = RowStore::Make({{"k", FieldType::kU32}}, kN);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < kN; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(rng.NextBelow(kN)));
  }
  Table fact = *Table::FromRowStore(*rs);
  auto dim_rs = RowStore::Make({{"id", FieldType::kU32}}, kN);
  ASSERT_TRUE(dim_rs.ok());
  for (size_t i = 0; i < kN; ++i) {
    size_t r = *dim_rs->AppendRow();
    dim_rs->SetU32(r, 0, static_cast<uint32_t>(i));
  }
  Table dim = *Table::FromRowStore(*dim_rs);

  auto plan = QueryBuilder(fact).Join(dim, "k", "id").Build();
  ASSERT_TRUE(plan.ok());
  PlannerOptions opts;
  opts.exec.scan_chunk_rows = 4096;  // 32 probe chunks
  opts.exec.parallelism = 4;
  Planner planner(opts);
  auto physical = planner.Lower(*plan);
  ASSERT_TRUE(physical.ok());
  auto result = physical->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), kN);

  ASSERT_EQ(physical->joins().size(), 1u);
  const JoinNodeInfo& j = physical->joins()[0];
  EXPECT_EQ(j.inner_cluster_runs, 1);  // the fix: one inner build, period
  EXPECT_GT(j.plan.bits, 0);
  EXPECT_GT(j.partition_tasks, 0u);
  EXPECT_EQ(j.parallelism, 4u);
  std::string explain = physical->ExplainJoins();
  EXPECT_NE(explain.find("partition tasks"), std::string::npos);
  EXPECT_NE(explain.find("inner clustered 1x"), std::string::npos);
}

TEST(ParallelExecTest, AllRowsOneKeyJoinAggregateMatchesSerial) {
  // Total skew: every fact row carries the same join key, so the whole
  // probe side lands in one radix cluster and one hash bucket, and one
  // group of the join output takes all the matches.
  auto fact_rs = RowStore::Make({{"fk", FieldType::kU32},
                                 {"val", FieldType::kU32},
                                 {"mode", FieldType::kChar10}},
                                900);
  ASSERT_TRUE(fact_rs.ok());
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP"};
  for (size_t i = 0; i < 900; ++i) {
    size_t r = *fact_rs->AppendRow();
    fact_rs->SetU32(r, 0, 2);
    fact_rs->SetU32(r, 1, static_cast<uint32_t>(i % 97));
    fact_rs->SetBytes(r, 2, modes[i % 4], strlen(modes[i % 4]));
  }
  Table fact = *Table::FromRowStore(*fact_rs);
  Table dim = MakeOrders(4);  // order_id 0..3: exactly one row matches
  auto run = [&](JoinStrategy strategy, size_t par) {
    auto plan = QueryBuilder(fact)
                    .Join(dim, "fk", "order_id", strategy)
                    .GroupByAgg({"mode"}, {AggSpec::Sum("val"),
                                           AggSpec::Count(),
                                           AggSpec::Max("prio")})
                    .OrderBy("mode")
                    .Build();
    CCDB_CHECK(plan.ok());
    PlannerOptions opts;
    opts.exec.scan_chunk_rows = 128;  // several probe chunks
    opts.exec.parallelism = par;
    auto r = Execute(*plan, opts);
    CCDB_CHECK(r.ok());
    return *std::move(r);
  };
  QueryResult serial = run(JoinStrategy::kBest, 1);
  ASSERT_EQ(serial.num_rows(), 4u);
  EXPECT_EQ(serial.columns[0].str_values,
            (std::vector<std::string>{"AIR", "MAIL", "SHIP", "TRUCK"}));
  EXPECT_EQ(serial.columns[2].i64_values,
            (std::vector<int64_t>{225, 225, 225, 225}));
  for (JoinStrategy strategy : {JoinStrategy::kBest, JoinStrategy::kPhashMin,
                                JoinStrategy::kSortMerge}) {
    for (size_t par : {1u, 2u, 8u}) {
      QueryResult got = run(strategy, par);
      SCOPED_TRACE(std::string(JoinStrategyName(strategy)) + " parallelism " +
                   std::to_string(par));
      ASSERT_EQ(got.num_columns(), serial.num_columns());
      for (size_t c = 0; c < serial.num_columns(); ++c) {
        EXPECT_EQ(got.columns[c].u32_values, serial.columns[c].u32_values);
        EXPECT_EQ(got.columns[c].i64_values, serial.columns[c].i64_values);
        EXPECT_EQ(got.columns[c].str_values, serial.columns[c].str_values);
      }
    }
  }
}

// --- partitioned-join probe ranges ------------------------------------------

/// A probe table {fk, v}: fk = keys[i], v = i (so every row is distinct).
Table MakeProbe(const std::vector<uint32_t>& keys) {
  auto rs = RowStore::Make({{"fk", FieldType::kU32}, {"v", FieldType::kU32}},
                           keys.size());
  CCDB_CHECK(rs.ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, keys[i]);
    rs->SetU32(r, 1, static_cast<uint32_t>(i));
  }
  return *Table::FromRowStore(*rs);
}

struct JoinRun {
  QueryResult result;
  JoinNodeInfo info;
};

/// probe ⋈ dim on fk = order_id, optionally behind a filter on the probe.
JoinRun RunProbeJoin(const Table& probe, const Table& dim, JoinType type,
                     JoinStrategy strategy, size_t par, size_t chunk_rows,
                     std::optional<Expr> filter = std::nullopt) {
  QueryBuilder qb(probe);
  if (filter.has_value()) qb.Filter(*filter);
  auto plan = qb.Join(dim, "fk", "order_id", type, strategy).Build();
  CCDB_CHECK(plan.ok());
  PlannerOptions opts;
  opts.exec.scan_chunk_rows = chunk_rows;
  opts.exec.parallelism = par;
  Planner planner(opts);
  auto physical = planner.Lower(*plan);
  CCDB_CHECK(physical.ok());
  auto result = physical->Execute();
  CCDB_CHECK(result.ok());
  CCDB_CHECK(physical->joins().size() == 1);
  return {*std::move(result), physical->joins()[0]};
}

void ExpectSameRows(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    EXPECT_EQ(got.columns[c].name, want.columns[c].name);
    EXPECT_EQ(got.columns[c].u32_values, want.columns[c].u32_values);
    EXPECT_EQ(got.columns[c].i64_values, want.columns[c].i64_values);
    EXPECT_EQ(got.columns[c].f64_values, want.columns[c].f64_values);
    EXPECT_EQ(got.columns[c].str_values, want.columns[c].str_values);
  }
}

/// Rows the join must produce when dim holds the unique keys [0, dim_rows):
/// a probe row matches exactly when its key is below dim_rows.
size_t ExpectedJoinRows(const std::vector<uint32_t>& keys, size_t dim_rows,
                        JoinType type) {
  size_t matched = 0;
  for (uint32_t k : keys) matched += k < dim_rows ? 1 : 0;
  switch (type) {
    case JoinType::kInner:
    case JoinType::kSemi: return matched;
    case JoinType::kAnti: return keys.size() - matched;
    case JoinType::kLeftOuter: return keys.size();
  }
  return 0;
}

constexpr JoinType kAllJoinTypes[] = {JoinType::kInner, JoinType::kLeftOuter,
                                      JoinType::kSemi, JoinType::kAnti};
constexpr JoinStrategy kClusteredStrategies[] = {
    JoinStrategy::kRadix8, JoinStrategy::kBest, JoinStrategy::kPhashMin};

/// Checks every output row of probe ⋈ dim (dim keys [0, dim_rows)) on its
/// own: joined rows carry equal keys, unmatched left-outer rows the null
/// surrogate 0, semi rows a key in the dim and anti rows one outside it.
void ExpectRowsMatchKeys(const QueryResult& r, size_t dim_rows,
                         JoinType type) {
  const std::vector<uint32_t>& fk = r.columns[0].u32_values;
  ASSERT_EQ(r.columns[0].name, "fk");
  ASSERT_EQ(fk.size(), r.num_rows());
  if (type == JoinType::kSemi || type == JoinType::kAnti) {
    for (uint32_t k : fk) {
      EXPECT_EQ(k < dim_rows, type == JoinType::kSemi) << k;
    }
    return;
  }
  ASSERT_EQ(r.columns[2].name, "order_id");
  const std::vector<uint32_t>& id = r.columns[2].u32_values;
  for (size_t i = 0; i < fk.size(); ++i) {
    EXPECT_EQ(id[i], fk[i] < dim_rows ? fk[i] : 0u) << "row " << i;
  }
}

/// Runs every clustered strategy x join type at parallelism {1, 2, 8} and
/// checks each result against the serial one byte for byte, the serial one
/// against the expected row count and row contents, and the range tasks
/// against chunks x par x 8.
void CheckProbeRanges(const std::vector<uint32_t>& keys, size_t dim_rows,
                      size_t chunk_rows, std::optional<Expr> filter,
                      size_t want_rows_if_filtered) {
  Table probe = MakeProbe(keys);
  Table dim = MakeOrders(dim_rows);
  const size_t chunks = (keys.size() + chunk_rows - 1) / chunk_rows;
  for (JoinStrategy strategy : kClusteredStrategies) {
    for (JoinType type : kAllJoinTypes) {
      SCOPED_TRACE(std::string(JoinStrategyName(strategy)) + " " +
                   JoinTypeName(type));
      JoinRun serial =
          RunProbeJoin(probe, dim, type, strategy, 1, chunk_rows, filter);
      EXPECT_GT(serial.info.plan.bits, 0);  // a radix-clustered plan
      EXPECT_EQ(serial.result.num_rows(),
                filter.has_value() ? want_rows_if_filtered
                                   : ExpectedJoinRows(keys, dim_rows, type));
      ExpectRowsMatchKeys(serial.result, dim_rows, type);
      for (size_t par : {1u, 2u, 8u}) {
        SCOPED_TRACE("parallelism " + std::to_string(par));
        JoinRun got =
            RunProbeJoin(probe, dim, type, strategy, par, chunk_rows, filter);
        EXPECT_EQ(got.info.probe_chunks, chunks);
        EXPECT_LE(got.info.partition_tasks, chunks * par * 8);
        ExpectSameRows(got.result, serial.result);
      }
    }
  }
}

TEST(ProbeRangeTest, TasksBoundedAndResultsByteIdenticalAtAnyParallelism) {
  // 4 probe chunks of 16384 rows, each split into several probe ranges at
  // parallelism > 1; about half the keys miss the 2^14-row dimension.
  constexpr size_t kDim = 1 << 14;
  Rng rng(15);
  std::vector<uint32_t> keys(1 << 16);
  for (uint32_t& k : keys) k = static_cast<uint32_t>(rng.NextBelow(2 * kDim));
  CheckProbeRanges(keys, kDim, 16384, std::nullopt, 0);

  // One task per non-empty probe cluster (~thousands per chunk here) would
  // exceed this; more than one range per chunk shows the chunks did split.
  Table probe = MakeProbe(keys);
  Table dim = MakeOrders(kDim);
  JoinRun r = RunProbeJoin(probe, dim, JoinType::kInner, JoinStrategy::kRadix8,
                           8, 16384);
  EXPECT_GT(r.info.partition_tasks, 4u);
  EXPECT_LE(r.info.partition_tasks, 4u * 8 * 4);
}

TEST(ProbeRangeTest, ChunksWithoutMatchesOrRows) {
  constexpr size_t kDim = 1 << 12;
  // Disjoint keys: no probe tuple has an inner cluster partner.
  std::vector<uint32_t> disjoint(20000);
  for (size_t i = 0; i < disjoint.size(); ++i) {
    disjoint[i] = static_cast<uint32_t>(kDim + i % 5000);
  }
  CheckProbeRanges(disjoint, kDim, 8192, std::nullopt, 0);
  // Every probe chunk filtered to nothing before it reaches the join.
  std::vector<uint32_t> keys(20000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i % kDim;
  CheckProbeRanges(keys, kDim, 8192, Col("v") > 1000000u, 0);
}

TEST(ProbeRangeTest, OneRowChunks) {
  Rng rng(3);
  std::vector<uint32_t> keys(300);
  for (uint32_t& k : keys) k = static_cast<uint32_t>(rng.NextBelow(512));
  CheckProbeRanges(keys, 256, 1, std::nullopt, 0);
}

TEST(ProbeRangeTest, SkewedProbeMatchesSerial) {
  // One key holds 60% of the probe rows: its radix cluster spans several
  // probe ranges, which must still reproduce the serial result.
  constexpr size_t kDim = 1 << 13;
  Rng rng(21);
  std::vector<uint32_t> keys(1 << 15);
  for (uint32_t& k : keys) {
    k = rng.NextBelow(10) < 6 ? 77u
                              : static_cast<uint32_t>(rng.NextBelow(2 * kDim));
  }
  CheckProbeRanges(keys, kDim, 16384, std::nullopt, 0);
}

}  // namespace
}  // namespace ccdb
