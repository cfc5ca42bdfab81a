// The repository benchmark: three workloads driven through ccdb's public
// query API (QueryBuilder -> Planner::Lower -> PhysicalPlan::Execute, and
// serve::Server), each answer checked against an oracle computed from the
// benchmark's own generated columns. WORKLOADS.md says why each workload
// exists and which layer it is meant to move.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/result.h"
#include "mem/arena.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;       // tiny tables, for the benchmark's own tests
  bool inject_wrong_answers = false;  // corrupt every 5th timed OLAP answer
  std::string trace_out;    // where the traced run writes its spans
};

/// splitmix64: the benchmark's own generator, so inputs depend on --seed
/// alone and never on the engine's RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint32_t n) {
    return static_cast<uint32_t>((Next() >> 32) * n >> 32);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

// --- oracle -----------------------------------------------------------------

/// One result cell: integral values widen to i64, strings stay strings.
struct Cell {
  enum Kind { kInt, kF64, kStr } kind = kInt;
  int64_t i = 0;
  double f = 0;
  std::string s;
};
using Row = std::vector<Cell>;

inline Cell IntCell(int64_t v) { return Cell{Cell::kInt, v, 0, {}}; }
inline Cell F64Cell(double v) { return Cell{Cell::kF64, 0, v, {}}; }
inline Cell StrCell(std::string v) {
  return Cell{Cell::kStr, 0, 0, std::move(v)};
}

/// The expected answer of one query, computed with plain loops over the
/// generated columns. Unordered answers compare as multisets.
struct Expected {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  bool ordered = false;
};

/// Sorts an unordered answer into the canonical order Check compares in.
void Canonicalize(Expected* e);

/// Empty when `got` matches `want`, else what differs.
std::string Check(const ccdb::QueryResult& got, const Expected& want);

/// Changes one value of a non-empty result.
void Corrupt(ccdb::QueryResult* r);

/// Feeds Check a corrupted copy of a correct result (one value changed, one
/// row dropped); returns false unless both corruptions are rejected.
bool OracleSelfTest(const ccdb::QueryResult& correct, const Expected& want);

// --- measurement helpers ----------------------------------------------------

double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
double GeoMean(const std::vector<double>& v);

/// Process counters a traced query is bracketed with.
struct Counters {
  Clock::time_point wall;
  double user_ms = 0, sys_ms = 0;
  int64_t minor_faults = 0, vol_cs = 0, invol_cs = 0, max_rss_kb = 0;
  ccdb::arena::ArenaStats arena;
  static Counters Now();
};

/// Per-query layer numbers from two Counters snapshots, attached to the
/// exec.execute span: mem.* and util.* deltas.
void AddCounterDeltas(const Counters& a, const Counters& b,
                      std::map<std::string, double>* out);

// --- tracing ----------------------------------------------------------------

/// A span recorded from the benchmark's side of a layer call. Kept in
/// memory; written out when the run ends.
struct Span {
  uint64_t id = 0, parent = 0, request = 0;  // parent 0 = root
  std::string name;
  double start_ms = 0, end_ms = 0;  // since the trace's origin
  std::map<std::string, double> counts;
};

class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}
  uint64_t Add(std::string name, uint64_t parent, uint64_t request,
               Clock::time_point start, Clock::time_point end,
               std::map<std::string, double> counts = {});
  const std::vector<Span>& spans() const { return spans_; }
  /// Median self time (duration minus the time child spans cover) per
  /// span name, over every span of that name.
  std::map<std::string, double> MedianSelfMs() const;
  bool WriteJsonl(const std::string& path, const std::string& header) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- results ----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run produced: end-to-end metrics (untraced run) or
/// per-layer metrics (traced run), plus the pass/fail tally.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::string fingerprint;  // JSON object: host, build, seed, join plans
  std::string error;        // first wrong answer, if any
};

/// Engine-side setup numbers every workload reports the same way.
struct SetupTimes {
  double calibrate_ms = 0;  // first MeasuredHostProfile()
  double load_ms = 0;       // Table::FromRowStore
  double table_mb = 0;      // Table::MemoryBytes
  double stats_ms = 0;      // first Lower of every query shape (cold stats)
};

RunResult RunOlapJoin(const Args& args);
RunResult RunOlapScanAgg(const Args& args);
RunResult RunServeMixed(const Args& args);

/// Fingerprint fields shared by every workload (host, build, seed).
std::string HostFingerprint(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
