// Exec-layer integration: the Fig. 4 Item table decomposed + byte-encoded,
// group-by over an encoded column, string gathers, and table-level joins
// against a row-store oracle.
#include <gtest/gtest.h>

#include <map>

#include "exec/operator.h"
#include "exec/plan.h"
#include "exec/table.h"
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

TEST(TableTest, AutoEncodesLowCardinalityStrings) {
  Table t = *Table::FromRowStore(MakeItems(100));
  auto idx = t.schema().FieldIndex("shipmode");
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE(t.is_encoded(*idx));
  // 4 distinct values: one byte per tuple (§3.1, Fig. 4's "1 byte per
  // column").
  EXPECT_EQ(t.column_value_bytes(*idx), 1u);
  EXPECT_EQ(t.dict(*idx).size(), 4u);
}

TEST(TableTest, EncodingCanBeDisabled) {
  Table t = *Table::FromRowStore(MakeItems(10), /*auto_encode=*/false);
  auto idx = t.schema().FieldIndex("shipmode");
  EXPECT_FALSE(t.is_encoded(*idx));
}

TEST(TableTest, GroupSumOverEncodedColumn) {
  Table t = *Table::FromRowStore(MakeItems(40));
  auto plan = QueryBuilder(t)
                  .GroupByAgg({"shipmode"}, {Agg::Sum("qty"), Agg::Count()})
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto agg = Execute(*plan);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg->num_rows(), 4u);
  // Oracle.
  std::map<std::string, int64_t> expect;
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP"};
  for (size_t i = 0; i < 40; ++i) expect[modes[i % 4]] += 1 + i % 5;
  const auto& cols = agg->columns;
  for (size_t g = 0; g < agg->num_rows(); ++g) {
    const std::string& name = cols[0].str_values[g];
    ASSERT_EQ(expect.count(name), 1u) << name;
    EXPECT_EQ(cols[1].i64_values[g], expect[name]) << name;
    EXPECT_EQ(cols[2].i64_values[g], 10) << name;
  }
}

TEST(TableTest, GatherStr) {
  Table t = *Table::FromRowStore(MakeItems(10));
  std::vector<oid_t> oids = {1, 3, 9};
  auto modes = t.GatherStr("shipmode", oids);
  ASSERT_TRUE(modes.ok());
  EXPECT_EQ(*modes, (std::vector<std::string>{"AIR", "SHIP", "AIR"}));
  // Out-of-range OID caught.
  std::vector<oid_t> bad = {99};
  EXPECT_EQ(t.GatherStr("shipmode", bad).status().code(),
            StatusCode::kOutOfRange);
}

TEST(TableTest, MemoryFootprintBeatsNsm) {
  RowStore rows = MakeItems(1000);
  Table t = *Table::FromRowStore(rows);
  size_t nsm_bytes = rows.record_width() * rows.size();
  // DSM + encodings: 4 (order) + 4 (qty) + 8 (price) + 1 (shipmode code)
  // = 17 bytes/tuple vs 26 NSM bytes.
  EXPECT_LT(t.MemoryBytes(), nsm_bytes);
}

TEST(ExecuteJoinTest, AllStrategiesProduceSameResult) {
  Rng rng(3);
  constexpr size_t kN = 2000;
  std::vector<Bun> l(kN), r(kN);
  for (size_t i = 0; i < kN; ++i) {
    l[i] = {static_cast<oid_t>(i), static_cast<uint32_t>(rng.NextBelow(500))};
    r[i] = {static_cast<oid_t>(i + 10000),
            static_cast<uint32_t>(rng.NextBelow(500))};
  }
  MachineProfile m = MachineProfile::Origin2000();
  auto canon = [](std::vector<Bun> v) {
    std::sort(v.begin(), v.end(), [](const Bun& a, const Bun& b) {
      return a.head != b.head ? a.head < b.head : a.tail < b.tail;
    });
    return v;
  };
  JoinPlan ref_plan = PlanJoin(JoinStrategy::kSimpleHash, kN, m);
  auto ref = ExecuteJoinPlan(l, r, ref_plan);
  ASSERT_TRUE(ref.ok());
  auto expect = canon(*ref);
  for (JoinStrategy s : {JoinStrategy::kSortMerge, JoinStrategy::kPhashL2,
                         JoinStrategy::kPhashTLB, JoinStrategy::kPhashL1,
                         JoinStrategy::kPhash256, JoinStrategy::kPhashMin,
                         JoinStrategy::kRadix8, JoinStrategy::kRadixMin,
                         JoinStrategy::kBest}) {
    JoinPlan plan = PlanJoin(s, kN, m);
    JoinStats stats;
    auto got = ExecuteJoinPlan(l, r, plan, &stats);
    ASSERT_TRUE(got.ok()) << JoinStrategyName(s);
    EXPECT_EQ(canon(*got), expect) << JoinStrategyName(s);
    EXPECT_EQ(stats.result_count, got->size());
  }
}

TEST(JoinProjectTest, ProjectsBothSides) {
  auto orders_rows = RowStore::Make(
      {{"order_id", FieldType::kU32}, {"clerk", FieldType::kChar10}}, 4);
  ASSERT_TRUE(orders_rows.ok());
  const char* clerks[] = {"ann", "bob", "cho", "dee"};
  for (uint32_t i = 0; i < 4; ++i) {
    size_t r = *orders_rows->AppendRow();
    orders_rows->SetU32(r, 0, i);
    orders_rows->SetBytes(r, 1, clerks[i], strlen(clerks[i]));
  }
  Table orders = *Table::FromRowStore(*orders_rows);
  Table items = *Table::FromRowStore(MakeItems(12));  // order = i/3: 0..3

  // price (10 + i) is unique per item, so ordering by it pins row i to
  // item i and lets every column be checked positionally.
  auto plan = QueryBuilder(items)
                  .Join(orders, "order", "order_id")
                  .OrderBy("price")
                  .Project({"qty", "shipmode", "clerk"})
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto res = Execute(*plan);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->num_columns(), 3u);
  ASSERT_EQ(res->num_rows(), 12u);
  const auto& cols = res->columns;
  EXPECT_EQ(cols[0].name, "qty");
  EXPECT_EQ(cols[0].type, PhysType::kU32);
  EXPECT_EQ(cols[0].u32_values[3], 1u + 3 % 5);
  EXPECT_EQ(cols[1].type, PhysType::kStr);
  EXPECT_EQ(cols[1].str_values[1], "AIR");
  EXPECT_EQ(cols[2].name, "clerk");
  EXPECT_EQ(cols[2].str_values[5], "bob");  // item 5 -> order 1
  EXPECT_EQ(cols[2].str_values[11], "dee");  // item 11 -> order 3
  // Unknown column propagates NotFound.
  EXPECT_EQ(QueryBuilder(items)
                .Join(orders, "order", "order_id")
                .Project({"nope"})
                .Build()
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(JoinProjectTest, JoinsOnU32Columns) {
  // orders(order_id) join items(order): classic FK join via the planner.
  auto orders_rows = RowStore::Make(
      {{"order_id", FieldType::kU32}, {"prio", FieldType::kU32}}, 10);
  ASSERT_TRUE(orders_rows.ok());
  for (uint32_t i = 0; i < 10; ++i) {
    size_t r = *orders_rows->AppendRow();
    orders_rows->SetU32(r, 0, i);
    orders_rows->SetU32(r, 1, i % 3);
  }
  Table orders = *Table::FromRowStore(*orders_rows);
  Table items = *Table::FromRowStore(MakeItems(30));  // order = i/3: 0..9

  auto plan = QueryBuilder(items)
                  .Join(orders, "order", "order_id")
                  .Project({"order", "order_id", "prio"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto res = Execute(*plan);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->num_rows(), 30u);  // every item matches exactly one order
  std::map<uint32_t, int> per_order;
  for (size_t i = 0; i < res->num_rows(); ++i) {
    uint32_t order = res->columns[0].u32_values[i];
    EXPECT_EQ(order, res->columns[1].u32_values[i]);
    EXPECT_EQ(res->columns[2].u32_values[i], order % 3);
    ++per_order[order];
  }
  ASSERT_EQ(per_order.size(), 10u);
  for (const auto& [order, n] : per_order) EXPECT_EQ(n, 3) << order;
}

}  // namespace
}  // namespace ccdb
