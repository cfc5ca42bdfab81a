// The three workloads: data generation from --seed, the query shapes, the
// oracle for each shape (plain loops over the generated columns), and the
// closed and open loops that time them. WORKLOADS.md gives the reasons
// behind every size and rate below.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "exec/plan.h"
#include "exec/table.h"
#include "model/calibrator.h"
#include "model/planner.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using ccdb::Agg;
using ccdb::Col;
using ccdb::FieldType;
using ccdb::JoinType;
using ccdb::LogicalPlan;
using ccdb::PhysicalPlan;
using ccdb::Planner;
using ccdb::PlannerOptions;
using ccdb::QueryBuilder;
using ccdb::QueryResult;
using ccdb::RowStore;
using ccdb::Table;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(ccdb::StatusOr<T> s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.status().ToString());
  return std::move(s).value();
}

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Engine settings every workload runs with: the calibrated host profile
/// and one partition (both defaults), parallelism = nproc.
PlannerOptions EngineOptions() {
  PlannerOptions o;
  o.exec.parallelism = Nproc();
  return o;
}

std::vector<uint32_t> Permutation(size_t n, Rng& rng) {
  std::vector<uint32_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.Below(static_cast<uint32_t>(i))]);
  return p;
}

const char* const kModes[8] = {"AIR",  "COURIER", "FOB",  "MAIL",
                               "RAIL", "REG AIR", "SHIP", "TRUCK"};

/// Builds a u32-only table from generated columns (plus an optional
/// Char10 column given as indexes into kModes).
Table Load(const std::vector<std::pair<std::string, const std::vector<uint32_t>*>>& cols,
           const std::vector<uint8_t>* modes, SetupTimes* setup) {
  std::vector<ccdb::FieldDef> fields;
  for (const auto& c : cols) fields.push_back({c.first, FieldType::kU32});
  if (modes != nullptr) fields.push_back({"mode", FieldType::kChar10});
  size_t n = cols[0].second->size();
  RowStore rs = Must(RowStore::Make(fields, n), "RowStore::Make");
  for (size_t r = 0; r < n; ++r) {
    size_t row = Must(rs.AppendRow(), "AppendRow");
    for (size_t f = 0; f < cols.size(); ++f) rs.SetU32(row, f, (*cols[f].second)[r]);
    if (modes != nullptr) {
      const char* m = kModes[(*modes)[r]];
      rs.SetBytes(row, cols.size(), m, std::strlen(m));
    }
  }
  Clock::time_point t = Clock::now();
  Table table = Must(Table::FromRowStore(rs), "Table::FromRowStore");
  setup->load_ms += MsBetween(t, Clock::now());
  setup->table_mb += static_cast<double>(table.MemoryBytes()) / (1 << 20);
  return table;
}

// --- per-query layer numbers --------------------------------------------------

const char* OpCategory(const std::string& label) {
  auto starts = [&](const char* p) { return label.rfind(p, 0) == 0; };
  if (starts("Join(")) return "exec.join_excl_ms";
  if (starts("Select(") || starts("Having(")) return "exec.select_excl_ms";
  if (starts("GroupByAgg(")) return "exec.groupby_excl_ms";
  if (starts("OrderBy(")) return "exec.orderby_excl_ms";
  if (starts("Scan(") || starts("SharedScan(")) return "exec.scan_excl_ms";
  return "exec.other_excl_ms";
}

/// What one executed plan says about the model, exec and algo layers,
/// through PhysicalPlan::costs()/MeasuredExclusiveNs()/joins().
void PlanLayerCounts(const PhysicalPlan& plan, double lower_ms, double exec_ms,
                     std::map<std::string, double>* out) {
  (*out)["model.lower_ms"] = lower_ms;
  (*out)["exec.execute_ms"] = exec_ms;
  for (const char* k : {"exec.join_excl_ms", "exec.select_excl_ms",
                        "exec.groupby_excl_ms", "exec.orderby_excl_ms",
                        "exec.scan_excl_ms", "exec.other_excl_ms"}) {
    (*out)[k] = 0;
  }
  const std::vector<ccdb::OpCostInfo>& costs = plan.costs();
  std::vector<double> excl = plan.MeasuredExclusiveNs();
  double excl_sum_ms = 0, join_excl_ms = 0;
  std::vector<double> op_ratio, join_ratio, qerror;
  for (size_t i = 0; i < costs.size(); ++i) {
    double ms = excl[i] * 1e-6;
    const char* cat = OpCategory(costs[i].label);
    (*out)[cat] += ms;
    excl_sum_ms += ms;
    if (std::strcmp(cat, "exec.join_excl_ms") == 0) join_excl_ms += ms;
    if (excl[i] > 0 && costs[i].predicted_ns > 0) {
      op_ratio.push_back(costs[i].predicted_ns / excl[i]);
      if (std::strcmp(cat, "exec.join_excl_ms") == 0) {
        join_ratio.push_back(costs[i].predicted_ns / excl[i]);
      }
    }
    double est = static_cast<double>(costs[i].estimated_rows) + 1;
    double act = static_cast<double>(costs[i].actual_rows) + 1;
    qerror.push_back(std::max(est / act, act / est));
  }
  (*out)["exec.excl_over_wall"] = exec_ms > 0 ? excl_sum_ms / exec_ms : 0;
  if (!op_ratio.empty()) (*out)["model.op_pred_ratio"] = GeoMean(op_ratio);
  if (!join_ratio.empty()) (*out)["model.join_pred_ratio"] = GeoMean(join_ratio);
  if (!qerror.empty()) (*out)["model.rows_qerror"] = GeoMean(qerror);

  if (plan.joins().empty()) return;
  double probe_cluster = 0, inner_cluster = 0, probe = 0, tasks = 0;
  int bits = 0, passes = 0;
  for (const ccdb::JoinNodeInfo& j : plan.joins()) {
    probe_cluster += j.stats.cluster_left_ms;
    inner_cluster += j.stats.cluster_right_ms;
    probe += j.stats.join_ms;
    tasks += static_cast<double>(j.partition_tasks);
    bits = std::max(bits, j.plan.bits);
    passes = std::max(passes, j.plan.passes);
  }
  (*out)["algo.join.cluster_probe_ms"] = probe_cluster;
  (*out)["algo.join.cluster_inner_ms"] = inner_cluster;
  (*out)["algo.join.probe_ms"] = probe;
  (*out)["algo.join.partition_tasks"] = tasks;
  (*out)["algo.join.bits"] = bits;
  (*out)["algo.join.passes"] = passes;
  (*out)["algo.join.phases_over_excl"] =
      join_excl_ms > 0 ? (probe_cluster + inner_cluster + probe) / join_excl_ms : 0;
}

/// The join plans a query ran with, for the run's fingerprint.
std::string JoinPlansJson(const std::string& query, const PhysicalPlan& plan) {
  std::string s;
  for (const ccdb::JoinNodeInfo& j : plan.joins()) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"query\": \"%s\", \"join\": \"%s = %s\", \"type\": \"%s\", "
                  "\"algorithm\": \"%s\", \"bits\": %d, \"passes\": %d, "
                  "\"inner_rows\": %llu, \"reordered\": %s}",
                  s.empty() ? "" : ", ", query.c_str(), j.left_key.c_str(),
                  j.right_key.c_str(), ccdb::JoinTypeName(j.join_type),
                  j.plan.use_radix_join ? "radix" : "phash", j.plan.bits,
                  j.plan.passes,
                  static_cast<unsigned long long>(j.inner_cardinality),
                  j.reordered ? "true" : "false");
    s += buf;
  }
  return s;
}

/// Per-layer values collected per query; each reported metric is the
/// median over the queries that produced it.
struct LayerSamples {
  std::map<std::string, std::vector<double>> values;
  void Add(const std::map<std::string, double>& m) {
    for (const auto& [k, v] : m) values[k].push_back(v);
  }
  void Put(std::map<std::string, Metric>* out) const {
    for (const auto& [k, v] : values) (*out)[k] = {Median(v), ""};
  }
};

void PutSetup(const SetupTimes& s, std::map<std::string, Metric>* out) {
  (*out)["bat.load_ms"] = {s.load_ms, ""};
  (*out)["bat.table_mb"] = {s.table_mb, ""};
  (*out)["model.calibrate_ms"] = {s.calibrate_ms, ""};
  (*out)["model.stats_ms"] = {s.stats_ms, ""};
}

double PeakRssMb() { return static_cast<double>(Counters::Now().max_rss_kb) / 1024; }

/// A benchmark whose oracle accepts a corrupted answer must not report
/// numbers: checked on one correct warm-up answer per run.
void RequireOracleRejectsCorruption(const QueryResult& r, const Expected& e) {
  if (!OracleSelfTest(r, e)) Die("oracle self-test failed: a corrupted answer was accepted");
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

// --- OLAP workloads -------------------------------------------------------------

struct OlapData {
  // Generated columns: the only input of the oracle.
  std::vector<uint32_t> fk, pk, g, h, v, u;
  std::vector<uint8_t> mode;
  std::vector<uint32_t> dim_id, dim_cat, dim_w, promo_id, promo_disc;
  uint32_t pk_domain = 0, h_domain = 0;
  Table fact, dim, promo;
};

/// fact 2^21 rows; dim 2^17 rows (1 MB of inner BUNs, half the L2), whose
/// radix plan (B=16, 2 passes) makes 32x more clusters than a ~2K-entry TLB
/// maps; promo 1024 keys of 2^16. Inner sizes sit where the model's plan
/// seldom depends on the calibrator's per-process reading: at 2^19 it
/// flips between B=17/2 and B=21/3 passes, at 2^18 between B=16 and 17.
void GenerateOlap(const Args& args, bool with_dims, OlapData* d, SetupTimes* setup) {
  size_t nf = args.smoke ? (1u << 14) : (1u << 21);
  size_t nd = args.smoke ? (1u << 12) : (1u << 17);
  size_t np = args.smoke ? 64 : 1024;
  d->pk_domain = args.smoke ? 1024 : 65536;
  d->h_domain = args.smoke ? 2000 : 100000;
  Rng rng(args.seed);
  d->fk.resize(nf); d->pk.resize(nf); d->g.resize(nf); d->h.resize(nf);
  d->v.resize(nf); d->mode.resize(nf);
  for (size_t i = 0; i < nf; ++i) {
    d->fk[i] = rng.Below(static_cast<uint32_t>(nd));
    d->pk[i] = rng.Below(d->pk_domain);
    d->g[i] = rng.Below(64);
    d->h[i] = rng.Below(d->h_domain);
    d->v[i] = rng.Below(1000);
    d->mode[i] = static_cast<uint8_t>(rng.Below(8));
  }
  d->u = Permutation(nf, rng);
  if (with_dims) {
    d->dim_id = Permutation(nd, rng);
    d->dim_cat.resize(nd); d->dim_w.resize(nd);
    for (size_t i = 0; i < nd; ++i) {
      d->dim_cat[i] = rng.Below(64);
      d->dim_w[i] = rng.Below(1000);
    }
    std::vector<uint32_t> keys = Permutation(d->pk_domain, rng);
    d->promo_id.assign(keys.begin(), keys.begin() + static_cast<long>(np));
    d->promo_disc.resize(np);
    for (size_t i = 0; i < np; ++i) d->promo_disc[i] = rng.Below(100);
  }
  d->fact = Load({{"fk", &d->fk}, {"pk", &d->pk}, {"g", &d->g}, {"h", &d->h},
                  {"v", &d->v}, {"u", &d->u}},
                 &d->mode, setup);
  if (with_dims) {
    d->dim = Load({{"id", &d->dim_id}, {"cat", &d->dim_cat}, {"w", &d->dim_w}},
                  nullptr, setup);
    d->promo = Load({{"pid", &d->promo_id}, {"disc", &d->promo_disc}}, nullptr, setup);
  }
}

struct OlapQuery {
  std::string name;
  LogicalPlan plan;
  std::function<Expected()> oracle;  // run after set-up, untimed
  Expected expected;
};

Expected GroupedI64(std::vector<std::string> cols, const std::vector<int64_t>& a,
                    const std::vector<int64_t>& b, const std::vector<int64_t>& cnt) {
  Expected e;
  e.columns = std::move(cols);
  for (size_t k = 0; k < cnt.size(); ++k) {
    if (cnt[k] == 0) continue;
    e.rows.push_back({IntCell(static_cast<int64_t>(k)), IntCell(a[k]), IntCell(b[k])});
  }
  return e;
}

/// cat (and w) of the dim row whose id is `key`.
std::vector<uint32_t> ById(const std::vector<uint32_t>& ids,
                           const std::vector<uint32_t>& vals) {
  std::vector<uint32_t> out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) out[ids[i]] = vals[i];
  return out;
}

std::vector<OlapQuery> OlapJoinQueries(const OlapData& d, Rng& rng) {
  std::vector<OlapQuery> qs;
  const uint32_t lo = rng.Below(901);  // v in [lo, lo+99]: 10% of the fact

  qs.push_back({"join_group",
                Must(QueryBuilder(d.fact).Join(d.dim, "fk", "id")
                         .GroupByAgg({"cat"}, {Agg::Sum("v").As("sv"), Agg::Count()})
                         .Build(), "join_group"),
                [&d] {
                  std::vector<uint32_t> cat = ById(d.dim_id, d.dim_cat);
                  std::vector<int64_t> sum(64), cnt(64);
                  for (size_t i = 0; i < d.fk.size(); ++i) {
                    sum[cat[d.fk[i]]] += d.v[i];
                    ++cnt[cat[d.fk[i]]];
                  }
                  return GroupedI64({"cat", "sv", "count"}, sum, cnt, cnt);
                }, {}});

  qs.push_back({"filter_join_group",
                Must(QueryBuilder(d.fact).Filter(ccdb::Between(Col("v"), lo, lo + 99))
                         .Join(d.dim, "fk", "id")
                         .GroupByAgg({"cat"}, {Agg::Sum("w").As("sw"), Agg::Count()})
                         .Build(), "filter_join_group"),
                [&d, lo] {
                  std::vector<uint32_t> cat = ById(d.dim_id, d.dim_cat);
                  std::vector<uint32_t> w = ById(d.dim_id, d.dim_w);
                  std::vector<int64_t> sum(64), cnt(64);
                  for (size_t i = 0; i < d.fk.size(); ++i) {
                    if (d.v[i] < lo || d.v[i] > lo + 99) continue;
                    sum[cat[d.fk[i]]] += w[d.fk[i]];
                    ++cnt[cat[d.fk[i]]];
                  }
                  return GroupedI64({"cat", "sw", "count"}, sum, cnt, cnt);
                }, {}});

  qs.push_back({"semi_join",
                Must(QueryBuilder(d.fact)
                         .Join(std::move(QueryBuilder(d.dim).Filter(Col("cat") < 32u)),
                               "fk", "id", JoinType::kSemi)
                         .GroupByAgg({"g"}, {Agg::Sum("v").As("sv"), Agg::Count()})
                         .Build(), "semi_join"),
                [&d] {
                  std::vector<uint32_t> cat = ById(d.dim_id, d.dim_cat);
                  std::vector<int64_t> sum(64), cnt(64);
                  for (size_t i = 0; i < d.fk.size(); ++i) {
                    if (cat[d.fk[i]] >= 32) continue;
                    sum[d.g[i]] += d.v[i];
                    ++cnt[d.g[i]];
                  }
                  return GroupedI64({"g", "sv", "count"}, sum, cnt, cnt);
                }, {}});

  // Written with the 2^17-row dim first; the reorderer must join the
  // 1024-row promo (1.6% of the fact matches) first.
  qs.push_back({"chain_reorder",
                Must(QueryBuilder(d.fact).Join(d.dim, "fk", "id")
                         .Join(d.promo, "pk", "pid")
                         .GroupByAgg({"cat"}, {Agg::Sum("disc").As("sd"), Agg::Count()})
                         .Build(), "chain_reorder"),
                [&d] {
                  std::vector<uint32_t> cat = ById(d.dim_id, d.dim_cat);
                  std::vector<int64_t> disc(d.pk_domain, -1);
                  for (size_t i = 0; i < d.promo_id.size(); ++i) {
                    disc[d.promo_id[i]] = d.promo_disc[i];
                  }
                  std::vector<int64_t> sum(64), cnt(64);
                  for (size_t i = 0; i < d.fk.size(); ++i) {
                    if (disc[d.pk[i]] < 0) continue;
                    sum[cat[d.fk[i]]] += disc[d.pk[i]];
                    ++cnt[cat[d.fk[i]]];
                  }
                  return GroupedI64({"cat", "sd", "count"}, sum, cnt, cnt);
                }, {}});
  return qs;
}

std::vector<OlapQuery> OlapScanAggQueries(const OlapData& d, Rng& rng) {
  std::vector<OlapQuery> qs;
  const uint32_t a = rng.Below(801);  // v in [a, a+199]: 20%
  std::vector<uint32_t> gs = {rng.Below(64), rng.Below(64), rng.Below(64)};
  const uint32_t min_count = d.h_domain == 100000 ? 26 : 12;  // ~15% of groups

  qs.push_back({"filter_or_in_not_agg",
                Must(QueryBuilder(d.fact)
                         .Filter((ccdb::Between(Col("v"), a, a + 199) ||
                                  ccdb::InU32(Col("g"), gs)) &&
                                 !(Col("mode") == "MAIL"))
                         .GroupByAgg({"g"}, {Agg::Sum("v").As("sv"), Agg::Count()})
                         .Build(), "filter_or_in_not_agg"),
                [&d, a, gs] {
                  std::vector<int64_t> sum(64), cnt(64);
                  for (size_t i = 0; i < d.v.size(); ++i) {
                    bool in = std::find(gs.begin(), gs.end(), d.g[i]) != gs.end();
                    bool between = d.v[i] >= a && d.v[i] <= a + 199;
                    if (!(between || in) || std::strcmp(kModes[d.mode[i]], "MAIL") == 0) continue;
                    sum[d.g[i]] += d.v[i];
                    ++cnt[d.g[i]];
                  }
                  return GroupedI64({"g", "sv", "count"}, sum, cnt, cnt);
                }, {}});

  qs.push_back({"group_100k_having",
                Must(QueryBuilder(d.fact)
                         .GroupByAgg({"h"}, {Agg::Sum("v").As("sv"), Agg::Count()})
                         .Having(Col("count") >= min_count)
                         .Build(), "group_100k_having"),
                [&d, min_count] {
                  std::vector<int64_t> sum(d.h_domain), cnt(d.h_domain);
                  for (size_t i = 0; i < d.h.size(); ++i) {
                    sum[d.h[i]] += d.v[i];
                    ++cnt[d.h[i]];
                  }
                  for (int64_t& c : cnt) {
                    if (c < min_count) c = 0;
                  }
                  return GroupedI64({"h", "sv", "count"}, sum, cnt, cnt);
                }, {}});

  qs.push_back({"multikey_min_max_avg",
                Must(QueryBuilder(d.fact)
                         .GroupByAgg({"g", "mode"},
                                     {Agg::Min("v"), Agg::Max("v"), Agg::Avg("v")})
                         .Build(), "multikey_min_max_avg"),
                [&d] {
                  std::vector<int64_t> mn(512, INT64_MAX), mx(512, -1), sum(512), cnt(512);
                  for (size_t i = 0; i < d.v.size(); ++i) {
                    size_t k = d.g[i] * 8 + d.mode[i];
                    mn[k] = std::min<int64_t>(mn[k], d.v[i]);
                    mx[k] = std::max<int64_t>(mx[k], d.v[i]);
                    sum[k] += d.v[i];
                    ++cnt[k];
                  }
                  Expected e;
                  e.columns = {"g", "mode", "min", "max", "avg"};
                  for (size_t k = 0; k < 512; ++k) {
                    if (cnt[k] == 0) continue;
                    e.rows.push_back({IntCell(static_cast<int64_t>(k / 8)),
                                      StrCell(kModes[k % 8]), IntCell(mn[k]),
                                      IntCell(mx[k]),
                                      F64Cell(static_cast<double>(sum[k]) /
                                              static_cast<double>(cnt[k]))});
                  }
                  return e;
                }, {}});

  qs.push_back({"filtered_topk",
                Must(QueryBuilder(d.fact).Filter(Col("v") < 500u)
                         .OrderBy("u", /*descending=*/true)
                         .Limit(100)
                         .Build(), "filtered_topk"),
                [&d] {
                  std::vector<uint32_t> idx;
                  for (size_t i = 0; i < d.v.size(); ++i) {
                    if (d.v[i] < 500) idx.push_back(static_cast<uint32_t>(i));
                  }
                  size_t k = std::min<size_t>(100, idx.size());
                  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k), idx.end(),
                                    [&d](uint32_t x, uint32_t y) { return d.u[x] > d.u[y]; });
                  Expected e;
                  e.columns = {"fk", "pk", "g", "h", "v", "u", "mode"};
                  e.ordered = true;
                  for (size_t j = 0; j < k; ++j) {
                    uint32_t i = idx[j];
                    e.rows.push_back({IntCell(d.fk[i]), IntCell(d.pk[i]), IntCell(d.g[i]),
                                      IntCell(d.h[i]), IntCell(d.v[i]), IntCell(d.u[i]),
                                      StrCell(kModes[d.mode[i]])});
                  }
                  return e;
                }, {}});
  return qs;
}

struct Timed {
  double latency_ms = 0;
  std::optional<QueryResult> result;
  std::string error;
};

/// One query through the planner and executor. Traced (`trace` and
/// `layers` set): spans query -> model.lower -> exec.execute, with the
/// per-layer numbers and the rusage/arena deltas attached to exec.execute.
Timed RunQuery(const Planner& planner, const std::string& name,
               const LogicalPlan& logical, Trace* trace, uint64_t request,
               LayerSamples* layers, std::string* join_plans = nullptr) {
  Timed out;
  Clock::time_point t0 = Clock::now();
  auto lowered = planner.Lower(logical);
  Clock::time_point t1 = Clock::now();
  if (!lowered.ok()) {
    out.error = name + ": " + lowered.status().ToString();
    return out;
  }
  PhysicalPlan& plan = lowered.value();
  Counters c0;
  if (trace != nullptr) c0 = Counters::Now();
  Clock::time_point t2 = Clock::now();
  auto res = plan.Execute();
  Clock::time_point t3 = Clock::now();
  out.latency_ms = MsBetween(t0, t3);
  if (!res.ok()) {
    out.error = name + ": " + res.status().ToString();
    return out;
  }
  out.result = std::move(res).value();
  if (join_plans != nullptr) *join_plans = JoinPlansJson(name, plan);
  if (trace != nullptr) {
    Counters c1 = Counters::Now();
    std::map<std::string, double> counts;
    PlanLayerCounts(plan, MsBetween(t0, t1), MsBetween(t2, t3), &counts);
    AddCounterDeltas(c0, c1, &counts);
    layers->Add(counts);
    uint64_t root = trace->Add("query", 0, request, t0, t3);
    trace->Add("model.lower", root, request, t0, t1);
    trace->Add("exec.execute", root, request, t2, t3, std::move(counts));
  }
  return out;
}

struct OlapSpec {
  bool with_dims = false;
  std::function<std::vector<OlapQuery>(const OlapData&, Rng&)> queries;
  /// Fixed per-query latency limit for slo_met_frac (about 4x the seed).
  double slo_ms = 0;
};

RunResult RunOlap(const Args& args, const OlapSpec& spec) {
  Clock::time_point start = Clock::now();
  SetupTimes setup;
  {
    Clock::time_point t = Clock::now();
    (void)ccdb::MeasuredHostProfile();
    setup.calibrate_ms = MsBetween(t, Clock::now());
  }
  OlapData data;
  GenerateOlap(args, spec.with_dims, &data, &setup);
  Rng qrng(args.seed ^ 0x5eed);
  std::vector<OlapQuery> queries = spec.queries(data, qrng);
  Planner planner(EngineOptions());

  // First Lower of every shape computes the lazy column statistics.
  {
    Clock::time_point t = Clock::now();
    for (const OlapQuery& q : queries) (void)Must(planner.Lower(q.plan), "Lower");
    setup.stats_ms = MsBetween(t, Clock::now());
  }
  std::vector<QueryResult> warm;
  std::string plans;
  for (const OlapQuery& q : queries) {
    std::string jp;
    Timed t = RunQuery(planner, q.name, q.plan, nullptr, 0, nullptr, &jp);
    if (!t.result) Die("warm-up " + t.error);
    warm.push_back(std::move(*t.result));
    if (!jp.empty()) plans += (plans.empty() ? "" : ", ") + jp;
  }
  RunResult out;
  out.metrics["setup_s"] = {MsBetween(start, Clock::now()) * 1e-3, "s"};

  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].expected = queries[i].oracle();
    Canonicalize(&queries[i].expected);
    std::string err = Check(warm[i], queries[i].expected);
    if (!err.empty()) Die("warm-up answer of " + queries[i].name + " is wrong: " + err);
  }
  RequireOracleRejectsCorruption(warm[0], queries[0].expected);
  warm.clear();
  out.fingerprint = "{" + HostFingerprint(args) + ", \"join_plans\": [" + plans + "]}";

  // Closed loop, one client, fixed rotation. The traced run alternates
  // untraced and traced quarters so trace.overhead_frac compares like with
  // like.
  const size_t n = queries.size();
  const int segments = args.trace ? 4 : 1;
  std::vector<std::vector<double>> lat(n), traced_lat(n);
  std::vector<double> all_lat;
  LayerSamples layers;
  Trace trace(start);
  uint64_t met = 0;
  size_t next = 0;
  Clock::time_point window = Clock::now();
  for (int seg = 0; seg < segments; ++seg) {
    bool traced = args.trace && seg % 2 == 1;
    Clock::time_point end =
        window + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(args.seconds * (seg + 1) / segments));
    // Every segment runs at least one full rotation.
    size_t seg_start = next;
    while (Clock::now() < end || next - seg_start < n) {
      const OlapQuery& q = queries[next % n];
      Timed t = RunQuery(planner, q.name, q.plan, traced ? &trace : nullptr,
                         next + 1, &layers);
      ++next;
      ++out.attempted;
      if (args.inject_wrong_answers && t.result && next % 5 == 0) Corrupt(&*t.result);
      std::string err = t.result ? Check(*t.result, q.expected) : t.error;
      if (!err.empty()) {
        ++out.failed;
        out.correct = false;
        if (out.error.empty()) out.error = q.name + ": " + err;
        continue;
      }
      if (t.latency_ms <= spec.slo_ms) ++met;
      (traced ? traced_lat : lat)[(next - 1) % n].push_back(t.latency_ms);
      if (!traced) all_lat.push_back(t.latency_ms);
    }
  }

  std::vector<double> medians;
  for (size_t c = 0; c < n; ++c) {
    std::printf("  %-22s %3zu runs  median %9.3f ms\n", queries[c].name.c_str(),
                lat[c].size(), Median(lat[c]));
    if (!lat[c].empty()) medians.push_back(Median(lat[c]));
  }
  if (args.trace) {
    std::vector<double> tm;
    for (const auto& v : traced_lat) {
      if (!v.empty()) tm.push_back(Median(v));
    }
    double base = GeoMean(medians);
    layers.Put(&out.metrics);
    PutSetup(setup, &out.metrics);
    for (const auto& [name, ms] : trace.MedianSelfMs()) {
      out.metrics["trace.self_ms." + name] = {ms, ""};
    }
    out.metrics["trace.spans"] = {static_cast<double>(trace.spans().size()), ""};
    out.metrics["trace.overhead_frac"] = {base > 0 ? GeoMean(tm) / base - 1 : 0, ""};
    if (!args.trace_out.empty() && !trace.WriteJsonl(args.trace_out, out.fingerprint)) {
      Die("cannot write " + args.trace_out);
    }
    return out;
  }
  double sum_s = 0;
  for (double m : medians) sum_s += m * 1e-3;
  std::printf("  %zu timed queries, p90 over all %.3f ms\n", all_lat.size(),
              Percentile(all_lat, 0.9));
  out.metrics["qps"] = {sum_s > 0 ? static_cast<double>(medians.size()) / sum_s : 0, "1/s"};
  out.metrics["worst_shape_p50_ms"] = {Max(medians), "ms"};
  out.metrics["slo_met_frac"] = {static_cast<double>(met) / static_cast<double>(out.attempted), "ratio"};
  out.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return out;
}

// --- serve_mixed ------------------------------------------------------------------

struct ServeData {
  std::vector<uint32_t> k, v, dk, g, sdim_id, sdim_cat;
  Table fact, sdim;
};

struct ServeQuery {
  LogicalPlan plan;
  Expected expected;
};

/// Fixed once, at about a third of the seed engine's capacity on a 4-vCPU
/// host (~450 point/s), and kept the same on every commit.
constexpr double kPointRate = 150;     // per second
constexpr double kAnalyticRate = 4;    // per second
constexpr double kPointSloMs = 25;     // point-latency limit, from due time
constexpr uint32_t kPointLiterals = 4096;

struct Request {
  double due_ms = 0;
  bool point = false;
  uint32_t plan = 0;
};

struct Sent {
  Request req;
  Clock::time_point due, sent;
  std::optional<ccdb::QueryTicket> ticket;  // empty: rejected at admission
  bool last = false;
};

}  // namespace

RunResult RunOlapJoin(const Args& args) {
  OlapSpec spec;
  spec.with_dims = true;
  spec.queries = OlapJoinQueries;
  spec.slo_ms = 4000;
  return RunOlap(args, spec);
}

RunResult RunOlapScanAgg(const Args& args) {
  OlapSpec spec;
  spec.queries = OlapScanAggQueries;
  spec.slo_ms = 1000;
  return RunOlap(args, spec);
}

RunResult RunServeMixed(const Args& args) {
  Clock::time_point start = Clock::now();
  SetupTimes setup;
  {
    Clock::time_point t = Clock::now();
    (void)ccdb::MeasuredHostProfile();
    setup.calibrate_ms = MsBetween(t, Clock::now());
  }
  // fact 2^20 rows: k over 2^16 keys (~16 rows per point answer); the
  // small dim (8192 rows, 64 KB of BUNs) is cache-resident. At 4096 rows
  // its radix plan flips between B=12 and 13 from process to process.
  const size_t nf = args.smoke ? (1u << 14) : (1u << 20);
  const uint32_t key_domain = args.smoke ? 8192 : 65536;
  const uint32_t nd = args.smoke ? 256 : 8192;
  const uint32_t literals = args.smoke ? 512 : kPointLiterals;
  ServeData d;
  Rng rng(args.seed);
  {
    d.k.resize(nf); d.v.resize(nf); d.dk.resize(nf); d.g.resize(nf);
    for (size_t i = 0; i < nf; ++i) {
      d.k[i] = rng.Below(key_domain);
      d.v[i] = rng.Below(1000);
      d.dk[i] = rng.Below(nd);
      d.g[i] = rng.Below(256);
    }
    d.sdim_id = Permutation(nd, rng);
    d.sdim_cat.resize(nd);
    for (uint32_t i = 0; i < nd; ++i) d.sdim_cat[i] = rng.Below(32);
  }
  d.fact = Load({{"k", &d.k}, {"v", &d.v}, {"dk", &d.dk}, {"g", &d.g}}, nullptr, &setup);
  d.sdim = Load({{"id", &d.sdim_id}, {"cat", &d.sdim_cat}}, nullptr, &setup);

  // 4096 point literals (more distinct plans than the plan cache's 64
  // entries), drawn Zipf(1); 8 analytic plans, two shapes x four ranges.
  std::vector<uint32_t> keys = Permutation(key_domain, rng);
  keys.resize(literals);
  std::vector<ServeQuery> points, analytics;
  for (uint32_t x : keys) {
    points.push_back({Must(QueryBuilder(d.fact).Filter(Col("k") == x).Build(), "point"), {}});
  }
  std::vector<uint32_t> los;
  for (int i = 0; i < 4; ++i) los.push_back(rng.Below(501));
  for (uint32_t lo : los) {
    analytics.push_back({Must(QueryBuilder(d.fact).Filter(ccdb::Between(Col("v"), lo, lo + 499))
                                  .Join(d.sdim, "dk", "id")
                                  .GroupByAgg({"cat"}, {Agg::Sum("v").As("sv"), Agg::Count()})
                                  .Build(), "analytic join"), {}});
    analytics.push_back({Must(QueryBuilder(d.fact).Filter(ccdb::Between(Col("v"), lo, lo + 299))
                                  .GroupByAgg({"g"}, {Agg::Sum("v"), Agg::Max("v")})
                                  .Build(), "analytic group"), {}});
  }

  PlannerOptions popts = EngineOptions();
  Planner planner(popts);
  {
    Clock::time_point t = Clock::now();
    (void)Must(planner.Lower(points[0].plan), "Lower");
    (void)Must(planner.Lower(analytics[0].plan), "Lower");
    (void)Must(planner.Lower(analytics[1].plan), "Lower");
    setup.stats_ms = MsBetween(t, Clock::now());
  }

  ccdb::ServerOptions sopts;
  sopts.planner = popts;
  sopts.max_queue = 64;
  ccdb::Server server(sopts);
  std::vector<QueryResult> warm;
  std::string plans;
  {
    ccdb::QuerySession ps(&server, "point"), as(&server, "analytic");
    for (size_t i = 0; i < analytics.size(); ++i) {
      warm.push_back(Must(as.Run(analytics[i].plan), "warm-up analytic"));
    }
    for (size_t i = 0; i < 64; ++i) (void)Must(ps.Run(points[i].plan), "warm-up point");
    auto lowered = Must(planner.Lower(analytics[0].plan), "Lower");
    (void)Must(lowered.Execute(), "Execute");
    plans = JoinPlansJson("analytic_join", lowered);
  }
  RunResult out;
  out.metrics["setup_s"] = {MsBetween(start, Clock::now()) * 1e-3, "s"};

  // Oracle: bucket the fact rows by key once, then answer every literal.
  {
    std::vector<std::vector<uint32_t>> by_key(key_domain);
    for (size_t i = 0; i < nf; ++i) by_key[d.k[i]].push_back(static_cast<uint32_t>(i));
    for (size_t p = 0; p < points.size(); ++p) {
      Expected& e = points[p].expected;
      e.columns = {"k", "v", "dk", "g"};
      for (uint32_t i : by_key[keys[p]]) {
        e.rows.push_back({IntCell(d.k[i]), IntCell(d.v[i]), IntCell(d.dk[i]), IntCell(d.g[i])});
      }
      Canonicalize(&e);
    }
    std::vector<uint32_t> cat = ById(d.sdim_id, d.sdim_cat);
    for (size_t a = 0; a < analytics.size(); ++a) {
      uint32_t lo = los[a / 2];
      Expected& e = analytics[a].expected;
      if (a % 2 == 0) {
        std::vector<int64_t> sum(32), cnt(32);
        for (size_t i = 0; i < nf; ++i) {
          if (d.v[i] < lo || d.v[i] > lo + 499) continue;
          sum[cat[d.dk[i]]] += d.v[i];
          ++cnt[cat[d.dk[i]]];
        }
        e = GroupedI64({"cat", "sv", "count"}, sum, cnt, cnt);
      } else {
        std::vector<int64_t> sum(256), mx(256, -1);
        for (size_t i = 0; i < nf; ++i) {
          if (d.v[i] < lo || d.v[i] > lo + 299) continue;
          sum[d.g[i]] += d.v[i];
          mx[d.g[i]] = std::max<int64_t>(mx[d.g[i]], d.v[i]);
        }
        std::vector<int64_t> present(256);
        for (size_t k = 0; k < 256; ++k) present[k] = mx[k] >= 0;
        e = GroupedI64({"g", "sum", "max"}, sum, mx, present);
      }
      Canonicalize(&e);
      std::string err = Check(warm[a], e);
      if (!err.empty()) Die("warm-up analytic answer is wrong: " + err);
    }
  }
  RequireOracleRejectsCorruption(warm[0], analytics[0].expected);
  warm.clear();
  out.fingerprint = "{" + HostFingerprint(args) + ", \"join_plans\": [" + plans + "]}";

  // Open-loop schedule: two seeded Poisson streams, merged by due time.
  std::vector<Request> schedule;
  {
    const double window_ms = args.seconds * 1000;
    std::vector<double> zipf_cdf(literals);
    double total = 0;
    for (uint32_t r = 0; r < literals; ++r) zipf_cdf[r] = (total += 1.0 / (r + 1));
    Rng arr(args.seed ^ 0xa11);
    for (double t = 0;;) {
      t += -std::log(1 - arr.Uniform()) * 1000 / kPointRate;
      if (t >= window_ms) break;
      double z = arr.Uniform() * total;
      uint32_t rank = static_cast<uint32_t>(
          std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), z) - zipf_cdf.begin());
      schedule.push_back({t, true, std::min(rank, literals - 1)});
    }
    for (double t = 0;;) {
      t += -std::log(1 - arr.Uniform()) * 1000 / kAnalyticRate;
      if (t >= window_ms) break;
      schedule.push_back({t, false, arr.Below(static_cast<uint32_t>(analytics.size()))});
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const Request& a, const Request& b) { return a.due_ms < b.due_ms; });
  }

  // The traced run traces the second and fourth quarters of the window.
  const int segments = args.trace ? 4 : 1;
  auto segment_of = [&](double due_ms) {
    return std::min(segments - 1, static_cast<int>(due_ms / (args.seconds * 1000) * segments));
  };

  // Latency from due time per shape: 0 point, 1 analytic join, 2 analytic
  // group-by; [traced] splits the traced run's quarters.
  auto shape_of = [](const Request& r) { return r.point ? 0 : 1 + static_cast<int>(r.plan % 2); };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> inbox;
  Trace trace(start);
  std::vector<double> lat[2][3], queue[3], exec[3], late;
  uint64_t correct_answers = 0, points_attempted = 0, points_met = 0;

  std::thread collector([&] {
    for (;;) {
      Sent s;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inbox.empty(); });
        s = std::move(inbox.front());
        inbox.pop_front();
      }
      if (s.last) return;
      const ServeQuery& q = s.req.point ? points[s.req.plan] : analytics[s.req.plan];
      const int shape = shape_of(s.req);
      const bool traced = args.trace && segment_of(s.req.due_ms) % 2 == 1;
      ++out.attempted;
      points_attempted += s.req.point;
      late.push_back(MsBetween(s.due, s.sent));
      std::string err = "rejected at admission";
      double queue_ms = 0, exec_ms = 0;
      if (s.ticket) {
        const ccdb::QueryOutcome& o = s.ticket->Wait();
        queue_ms = o.queue_ms;
        exec_ms = o.exec_ms;
        err = o.status.ok() ? Check(o.result, q.expected) : o.status.ToString();
        if (traced) {
          auto ms = [](double v) {
            return std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(v));
          };
          uint64_t id = out.attempted;
          uint64_t root = trace.Add("serve.submit", 0, id, s.sent, s.sent + ms(queue_ms + exec_ms));
          trace.Add("serve.queue", root, id, s.sent, s.sent + ms(queue_ms));
          trace.Add("serve.exec", root, id, s.sent + ms(queue_ms), s.sent + ms(queue_ms + exec_ms),
                    {{"cache_hit", o.cache_hit ? 1.0 : 0.0}});
        }
      }
      if (!err.empty()) {
        ++out.failed;
        // A rejection counts as a failure, not as a wrong answer.
        if (s.ticket) {
          out.correct = false;
          if (out.error.empty()) out.error = err;
        }
        continue;
      }
      ++correct_answers;
      double ms = MsBetween(s.due, s.sent) + queue_ms + exec_ms;
      lat[traced][shape].push_back(ms);
      if (s.req.point && ms <= kPointSloMs) ++points_met;
      if (traced) {
        queue[shape].push_back(queue_ms);
        exec[shape].push_back(exec_ms);
      }
    }
  });

  Clock::time_point window = Clock::now();
  for (const Request& r : schedule) {
    Sent s;
    s.req = r;
    s.due = window + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(r.due_ms));
    std::this_thread::sleep_until(s.due);
    s.sent = Clock::now();
    ccdb::Server::SubmitOptions so;
    so.query_class = r.point ? "point" : "analytic";
    auto ticket = server.Submit(r.point ? points[r.plan].plan : analytics[r.plan].plan, so);
    if (ticket.ok()) s.ticket = std::move(ticket).value();
    std::lock_guard<std::mutex> lock(mu);
    inbox.push_back(std::move(s));
    cv.notify_one();
  }
  {
    Sent s;
    s.last = true;
    std::lock_guard<std::mutex> lock(mu);
    inbox.push_back(std::move(s));
    cv.notify_one();
  }
  collector.join();
  ccdb::Server::Stats st = server.stats();

  const char* const kShapes[3] = {"point", "analytic_join", "analytic_group"};
  auto shape_medians = [&](int traced) {
    std::vector<double> m;
    for (int c = 0; c < 3; ++c) {
      if (!lat[traced][c].empty()) m.push_back(Median(lat[traced][c]));
    }
    return m;
  };
  for (int t = 0; t <= static_cast<int>(args.trace); ++t) {
    for (int c = 0; c < 3; ++c) {
      std::printf("  %s%-15s %5zu answered  p50 %8.3f  p90 %8.3f  p95 %8.3f  p99 %8.3f ms from due\n",
                  t ? "traced " : "", kShapes[c], lat[t][c].size(), Median(lat[t][c]),
                  Percentile(lat[t][c], 0.9), Percentile(lat[t][c], 0.95),
                  Percentile(lat[t][c], 0.99));
    }
  }
  if (!args.trace) {
    out.metrics["qps"] = {static_cast<double>(correct_answers) / args.seconds, "1/s"};
    out.metrics["worst_shape_p50_ms"] = {Max(shape_medians(0)), "ms"};
    out.metrics["slo_met_frac"] = {
        points_attempted ? static_cast<double>(points_met) / static_cast<double>(points_attempted) : 0,
        "ratio"};
    out.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    return out;
  }

  // The layers under the server, seen through the same plans run directly
  // (Planner::Lower + Execute, traced): every analytic plan and 32 point
  // plans. Each metric is the per-request mean under the workload's mix
  // (shape medians weighted by arrival share); join metrics are the
  // analytic join's medians.
  LayerSamples by_shape[3];
  for (size_t i = 0; i < analytics.size() + 32; ++i) {
    bool analytic = i < analytics.size();
    const ServeQuery& sq = analytic ? analytics[i] : points[i - analytics.size()];
    int shape = analytic ? 1 + static_cast<int>(i % 2) : 0;
    Timed t = RunQuery(planner, kShapes[shape], sq.plan, &trace, out.attempted + i + 1,
                       &by_shape[shape]);
    std::string err = t.result ? Check(*t.result, sq.expected) : t.error;
    if (!err.empty()) {
      out.correct = false;
      if (out.error.empty()) out.error = err;
    }
  }
  const double share[3] = {kPointRate / (kPointRate + kAnalyticRate),
                           kAnalyticRate / 2 / (kPointRate + kAnalyticRate),
                           kAnalyticRate / 2 / (kPointRate + kAnalyticRate)};
  std::map<std::string, Metric> join_only;
  by_shape[1].Put(&join_only);
  for (int c = 0; c < 3; ++c) {
    std::map<std::string, Metric> m;
    by_shape[c].Put(&m);
    for (const auto& [k, v] : m) {
      if (k.rfind("algo.join.", 0) == 0 || k == "model.join_pred_ratio") continue;
      out.metrics[k].value += share[c] * v.value;
    }
  }
  for (const auto& [k, v] : join_only) {
    if (k.rfind("algo.join.", 0) == 0 || k == "model.join_pred_ratio") out.metrics[k] = v;
  }
  PutSetup(setup, &out.metrics);
  auto put = [&](const char* name, double v) { out.metrics[name] = {v, ""}; };
  put("serve.point.latency_p50_ms", Median(lat[1][0]));
  put("serve.point.latency_p99_ms", Percentile(lat[1][0], 0.99));
  put("serve.analytic.latency_p50_ms", GeoMean({Median(lat[1][1]), Median(lat[1][2])}));
  put("serve.point.queue_ms_p50", Median(queue[0]));
  put("serve.point.queue_ms_p99", Percentile(queue[0], 0.99));
  put("serve.point.exec_ms_p50", Median(exec[0]));
  put("serve.analytic.queue_ms_p50", GeoMean({Median(queue[1]), Median(queue[2])}));
  put("serve.analytic.exec_ms_p50", GeoMean({Median(exec[1]), Median(exec[2])}));
  uint64_t lookups = st.cache.hits + st.cache.misses;
  put("serve.plan_cache.hit_rate",
      lookups ? static_cast<double>(st.cache.hits) / static_cast<double>(lookups) : 0);
  put("serve.rejected", static_cast<double>(st.rejected));
  const auto& sc = st.shared_scans;
  double filters = static_cast<double>(sc.filter_full_evals + sc.filter_narrowed + sc.filter_copied);
  put("serve.shared_scan.filter_reuse_frac",
      filters > 0 ? static_cast<double>(sc.filter_narrowed + sc.filter_copied) / filters : 0);
  put("serve.shared_scan.fanout_ratio",
      sc.chunks_driven
          ? static_cast<double>(sc.chunks_fanned_out) / static_cast<double>(sc.chunks_driven)
          : 0);
  put("serve.shared_scan.overflows", static_cast<double>(sc.overflows));
  put("loadgen.late_ms_p99", Percentile(late, 0.99));
  put("loadgen.offered_qps", static_cast<double>(schedule.size()) / args.seconds);
  for (const auto& [name, ms] : trace.MedianSelfMs()) put(("trace.self_ms." + name).c_str(), ms);
  put("trace.spans", static_cast<double>(trace.spans().size()));
  double base = GeoMean(shape_medians(0));
  put("trace.overhead_frac", base > 0 ? GeoMean(shape_medians(1)) / base - 1 : 0);
  if (!args.trace_out.empty() && !trace.WriteJsonl(args.trace_out, out.fingerprint)) {
    Die("cannot write " + args.trace_out);
  }
  return out;
}

}  // namespace perfbench
