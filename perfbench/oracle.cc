// Result checking: an engine QueryResult against the oracle's Expected rows.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {
namespace {

using ccdb::PhysType;
using ccdb::QueryResult;

int CompareCells(const Cell& a, const Cell& b) {
  if (a.kind != b.kind) return a.kind < b.kind ? -1 : 1;
  switch (a.kind) {
    case Cell::kInt: return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
    case Cell::kF64: return a.f < b.f ? -1 : (a.f > b.f ? 1 : 0);
    case Cell::kStr: return a.s.compare(b.s);
  }
  return 0;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = CompareCells(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

bool CellsEqual(const Cell& a, const Cell& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == Cell::kF64) {
    // Averages: the engine and the oracle may sum in different orders.
    return std::fabs(a.f - b.f) <= 1e-9 * std::max(1.0, std::fabs(b.f));
  }
  return CompareCells(a, b) == 0;
}

std::string CellText(const Cell& c) {
  char buf[64];
  switch (c.kind) {
    case Cell::kInt:
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(c.i));
      return buf;
    case Cell::kF64:
      std::snprintf(buf, sizeof buf, "%.17g", c.f);
      return buf;
    case Cell::kStr: return "'" + c.s + "'";
  }
  return "?";
}

std::vector<Row> Rows(const QueryResult& r) {
  std::vector<Row> rows(r.num_rows());
  for (const ccdb::MaterializedColumn& col : r.columns) {
    for (size_t i = 0; i < rows.size(); ++i) {
      switch (col.type) {
        case PhysType::kStr: rows[i].push_back(StrCell(col.str_values[i])); break;
        case PhysType::kF64: rows[i].push_back(F64Cell(col.f64_values[i])); break;
        case PhysType::kI64: rows[i].push_back(IntCell(col.i64_values[i])); break;
        default: rows[i].push_back(IntCell(col.u32_values[i])); break;
      }
    }
  }
  return rows;
}

}  // namespace

void Canonicalize(Expected* e) {
  if (!e->ordered) std::sort(e->rows.begin(), e->rows.end(), RowLess);
}

std::string Check(const QueryResult& got, const Expected& want) {
  if (got.num_columns() != want.columns.size()) {
    return "got " + std::to_string(got.num_columns()) + " columns, want " +
           std::to_string(want.columns.size());
  }
  for (size_t c = 0; c < want.columns.size(); ++c) {
    if (got.columns[c].name != want.columns[c]) {
      return "column " + std::to_string(c) + " is '" + got.columns[c].name +
             "', want '" + want.columns[c] + "'";
    }
    if (got.columns[c].size() != got.num_rows()) return "ragged result";
  }
  if (got.num_rows() != want.rows.size()) {
    return "got " + std::to_string(got.num_rows()) + " rows, want " +
           std::to_string(want.rows.size());
  }
  std::vector<Row> rows = Rows(got);
  if (!want.ordered) std::sort(rows.begin(), rows.end(), RowLess);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < rows[i].size(); ++c) {
      if (!CellsEqual(rows[i][c], want.rows[i][c])) {
        return "row " + std::to_string(i) + " column '" + want.columns[c] +
               "': got " + CellText(rows[i][c]) + ", want " +
               CellText(want.rows[i][c]);
      }
    }
  }
  return "";
}

void Corrupt(QueryResult* r) {
  if (r->num_rows() == 0) return;
  ccdb::MaterializedColumn& col = r->columns.back();
  switch (col.type) {
    case PhysType::kStr: col.str_values[0] += "x"; break;
    case PhysType::kF64: col.f64_values[0] += 1.0; break;
    case PhysType::kI64: col.i64_values[0] += 1; break;
    default: col.u32_values[0] += 1; break;
  }
}

bool OracleSelfTest(const QueryResult& correct, const Expected& want) {
  if (!Check(correct, want).empty() || correct.num_rows() == 0) return false;
  QueryResult changed = correct;
  Corrupt(&changed);
  QueryResult dropped = correct;
  for (ccdb::MaterializedColumn& c : dropped.columns) {
    c.str_values.resize(c.str_values.empty() ? 0 : c.str_values.size() - 1);
    c.f64_values.resize(c.f64_values.empty() ? 0 : c.f64_values.size() - 1);
    c.u32_values.resize(c.u32_values.empty() ? 0 : c.u32_values.size() - 1);
    c.i64_values.resize(c.i64_values.empty() ? 0 : c.i64_values.size() - 1);
  }
  return !Check(changed, want).empty() && !Check(dropped, want).empty();
}

}  // namespace perfbench
