// Spans, process counters and percentiles: the measurement side of the
// benchmark, recorded from outside the engine.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "mem/hw_counters.h"
#include "model/calibrator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

double TvMs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) * 1e-3;
}

}  // namespace

Counters Counters::Now() {
  Counters c;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.wall = Clock::now();
  c.user_ms = TvMs(ru.ru_utime);
  c.sys_ms = TvMs(ru.ru_stime);
  c.minor_faults = ru.ru_minflt;
  c.vol_cs = ru.ru_nvcsw;
  c.invol_cs = ru.ru_nivcsw;
  c.max_rss_kb = ru.ru_maxrss;
  c.arena = ccdb::arena::Stats();
  return c;
}

void AddCounterDeltas(const Counters& a, const Counters& b,
                      std::map<std::string, double>* out) {
  double wall = std::max(MsBetween(a.wall, b.wall), 1e-6);
  double cpu = (b.user_ms - a.user_ms) + (b.sys_ms - a.sys_ms);
  double mapped = static_cast<double>(b.arena.large_mapped_bytes -
                                      a.arena.large_mapped_bytes);
  double advised = static_cast<double>(b.arena.huge_advised_bytes -
                                       a.arena.huge_advised_bytes);
  (*out)["mem.minor_faults"] =
      static_cast<double>(b.minor_faults - a.minor_faults);
  (*out)["mem.large_allocs"] =
      static_cast<double>(b.arena.large_allocs - a.arena.large_allocs);
  (*out)["mem.large_mapped_mb"] = mapped / (1 << 20);
  (*out)["mem.huge_advised_frac"] = mapped > 0 ? advised / mapped : 0;
  (*out)["mem.sys_cpu_frac"] = (b.sys_ms - a.sys_ms) / wall;
  (*out)["util.pool.ctx_switches_vol"] = static_cast<double>(b.vol_cs - a.vol_cs);
  (*out)["util.pool.ctx_switches_invol"] =
      static_cast<double>(b.invol_cs - a.invol_cs);
  (*out)["util.cpu_util"] =
      cpu / (wall * std::max(1u, std::thread::hardware_concurrency()));
}

uint64_t Trace::Add(std::string name, uint64_t parent, uint64_t request,
                    Clock::time_point start, Clock::time_point end,
                    std::map<std::string, double> counts) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  s.name = std::move(name);
  s.start_ms = MsBetween(origin_, start);
  s.end_ms = MsBetween(origin_, end);
  s.counts = std::move(counts);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::map<std::string, double> Trace::MedianSelfMs() const {
  std::vector<double> child_ms(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ms[s.parent - 1] += s.end_ms - s.start_ms;
  }
  std::unordered_map<std::string, std::vector<double>> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name].push_back(std::max(0.0, s.end_ms - s.start_ms - child_ms[i]));
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : self) out[name] = Median(std::move(v));
  return out;
}

bool Trace::WriteJsonl(const std::string& path,
                       const std::string& header) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                 "\"counts\": {",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 s.start_ms, s.end_ms);
    const char* sep = "";
    for (const auto& [k, v] : s.counts) {
      std::fprintf(f, "%s\"%s\": %.9g", sep, k.c_str(), std::isfinite(v) ? v : 0);
      sep = ", ";
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

std::string HostFingerprint(const Args& args) {
  const ccdb::TlbInfo& tlb = ccdb::MeasuredTlbGeometry();
  ccdb::HwCounters perf;
  bool perf_ok = perf.Open().ok();
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "\"workload\": \"%s\", \"seed\": %llu, \"smoke\": %s, "
      "\"build_type\": \"%s\", \"nproc\": %u, \"l2_bytes\": %zu, "
      "\"tlb\": {\"entries\": %zu, \"levels\": %d, \"walk_ns\": %.3f, "
      "\"measured\": %s}, \"thp_available\": %s, "
      "\"huge_advised_bytes\": %llu, \"perf_available\": %s",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.smoke ? "true" : "false", PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), ccdb::MeasuredL2CacheBytes(),
      tlb.entries, tlb.levels, tlb.walk_ns, tlb.measured ? "true" : "false",
      ccdb::arena::ThpAvailable() ? "true" : "false",
      static_cast<unsigned long long>(ccdb::arena::Stats().huge_advised_bytes),
      perf_ok ? "true" : "false");
  return buf;
}

}  // namespace perfbench
