// perfbench: one workload per process.
//
//   perfbench --workload olap_join|olap_scan_agg|serve_mixed --seed N
//             --seconds S --trace 0|1 [--smoke] [--trace-out PATH]
//             [--inject-wrong-answers]
//
// Prints a fingerprint line, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero on a
// wrong answer. run.py builds this binary and is the command to run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (perfbench/selftest.py checks).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"qps", "1/s"},
    {"worst_shape_p50_ms", "ms"}, {"slo_met_frac", "ratio"},
    {"ok_frac", "ratio"},      {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"bat.load_ms", "ms"},
    {"bat.table_mb", "MB"},
    {"model.calibrate_ms", "ms"},
    {"model.stats_ms", "ms"},
    {"model.lower_ms", "ms"},
    {"model.join_pred_ratio", "ratio"},
    {"model.op_pred_ratio", "ratio"},
    {"model.rows_qerror", "ratio"},
    {"exec.execute_ms", "ms"},
    {"exec.join_excl_ms", "ms"},
    {"exec.select_excl_ms", "ms"},
    {"exec.groupby_excl_ms", "ms"},
    {"exec.orderby_excl_ms", "ms"},
    {"exec.scan_excl_ms", "ms"},
    {"exec.other_excl_ms", "ms"},
    {"exec.excl_over_wall", "ratio"},
    {"algo.join.cluster_probe_ms", "ms"},
    {"algo.join.cluster_inner_ms", "ms"},
    {"algo.join.probe_ms", "ms"},
    {"algo.join.partition_tasks", "count"},
    {"algo.join.bits", "count"},
    {"algo.join.passes", "count"},
    {"algo.join.phases_over_excl", "ratio"},
    {"mem.minor_faults", "count"},
    {"mem.large_allocs", "count"},
    {"mem.large_mapped_mb", "MB"},
    {"mem.huge_advised_frac", "ratio"},
    {"mem.sys_cpu_frac", "ratio"},
    {"util.pool.ctx_switches_vol", "count"},
    {"util.pool.ctx_switches_invol", "count"},
    {"util.cpu_util", "ratio"},
    {"serve.point.latency_p50_ms", "ms"},
    {"serve.point.latency_p99_ms", "ms"},
    {"serve.analytic.latency_p50_ms", "ms"},
    {"serve.point.queue_ms_p50", "ms"},
    {"serve.point.queue_ms_p99", "ms"},
    {"serve.point.exec_ms_p50", "ms"},
    {"serve.analytic.queue_ms_p50", "ms"},
    {"serve.analytic.exec_ms_p50", "ms"},
    {"serve.plan_cache.hit_rate", "ratio"},
    {"serve.rejected", "count"},
    {"serve.shared_scan.filter_reuse_frac", "ratio"},
    {"serve.shared_scan.fanout_ratio", "ratio"},
    {"serve.shared_scan.overflows", "count"},
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.offered_qps", "1/s"},
    {"trace.spans", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.self_ms.query", "ms"},
    {"trace.self_ms.model.lower", "ms"},
    {"trace.self_ms.exec.execute", "ms"},
    {"trace.self_ms.serve.submit", "ms"},
    {"trace.self_ms.serve.queue", "ms"},
    {"trace.self_ms.serve.exec", "ms"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "olap_join|olap_scan_agg|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-out PATH] [--inject-wrong-answers]\n",
               msg);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (k == "--inject-wrong-answers") {
      a->inject_wrong_answers = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

/// Keeps exactly the metrics `defs` lists, in order, with their units;
/// a layer that did no work on this workload reports 0.
bool Select(const MetricDef* defs, size_t n, RunResult* r) {
  std::map<std::string, Metric> out;
  for (size_t i = 0; i < n; ++i) {
    auto it = r->metrics.find(defs[i].name);
    out[defs[i].name] = {it == r->metrics.end() ? 0 : it->second.value, defs[i].unit};
  }
  for (const auto& [name, m] : r->metrics) {
    if (out.count(name) == 0) {
      std::fprintf(stderr, "perfbench: unlisted metric %s\n", name.c_str());
      return false;
    }
  }
  r->metrics = std::move(out);
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  RunResult r;
  if (args.workload == "olap_join") {
    r = RunOlapJoin(args);
  } else if (args.workload == "olap_scan_agg") {
    r = RunOlapScanAgg(args);
  } else if (args.workload == "serve_mixed") {
    r = RunServeMixed(args);
  } else {
    return Usage("unknown workload");
  }
  if (r.attempted == 0) {
    std::fprintf(stderr, "perfbench: no query ran\n");
    return 1;
  }
  if (args.trace) {
    r.metrics.erase("setup_s");  // an end-to-end metric, reported untraced
  } else {
    r.metrics["ok_frac"] = {
        static_cast<double>(r.attempted - r.failed) / static_cast<double>(r.attempted), ""};
  }
  bool ok = args.trace ? Select(kPerLayer, std::size(kPerLayer), &r)
                       : Select(kEndToEnd, std::size(kEndToEnd), &r);
  if (!ok) return 1;
  if (!r.error.empty()) std::fprintf(stderr, "perfbench: wrong answer: %s\n", r.error.c_str());
  std::printf("{\"fingerprint\": %s}\n", r.fingerprint.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}
