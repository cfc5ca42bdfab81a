// Huge-page A/B: the same four memory-bound kernels on 4 KB base pages vs
// 2 MB transparent huge pages, both served by the arena (mem/arena.h) —
// HugePolicy::kDisable vs kRequest on otherwise identical mappings. The
// kernels bracket the engine's access patterns:
//
//   seq_scan       sequential u32 sum (prefetch hides most walks: control)
//   random_gather  uniform random reads over a TLB-spilling buffer (worst
//                  case: ~every access is a walk on base pages)
//   radix_cluster  one-pass high-fanout cluster (the §3.3.1 scatter whose
//                  fan-out the TLB caps — partition writes touch 2^B pages)
//   join_build     linear-probe hash-table build (scattered writes)
//
// Next to the measured ratio the bench prints the cost model's predicted
// translation ratio (CostModel::WithPageBytes — RelPages shrinks 512x), so
// BENCH_ci.json records predicted-vs-measured for the translation term.
//
// Huge pages are a *request*: the kernel grants them at fault time or not
// (THP disabled, fragmentation). The bench reads the grant back from
// /proc/self/smaps and, when nothing was granted, says so and marks the
// section tlb_pages_meaningful=false instead of reporting a fake A/B.
//
//   --smoke             tiny scale, no assertions (the TSan CI job)
//   --json-merge=PATH   merge a "tlb_pages" section into BENCH_ci.json
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "algo/radix_cluster.h"
#include "bench_common.h"
#include "mem/access.h"
#include "mem/arena.h"
#include "model/cost_model.h"
#include "util/timer.h"

using namespace ccdb;

namespace {

/// An arena block faulted in under `policy`, with the grant read back.
struct Buffer {
  void* p = nullptr;
  size_t bytes = 0;
  size_t huge_backed = 0;

  Buffer(size_t n, arena::HugePolicy policy) : bytes(n) {
    p = arena::AllocateBlock(n, policy);
    std::memset(p, 0, n);  // fault in: THP backing is decided here
    huge_backed = arena::HugeBackedBytes(p);
  }
  ~Buffer() { arena::FreeBlock(p); }
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  template <typename T>
  T* as() const {
    return static_cast<T*>(p);
  }
};

double MinOverReps(int reps, double (*kernel)(const Buffer&, size_t),
                   const Buffer& buf, size_t n) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, kernel(buf, n));
  return best;
}

// -- kernels (each returns wall ms; volatile sinks defeat DCE) ---------------

volatile uint64_t g_sink;

double SeqScanMs(const Buffer& buf, size_t n) {
  const uint32_t* v = buf.as<uint32_t>();
  WallTimer t;
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += v[i];
  double ms = t.ElapsedMillis();
  g_sink = sum;
  return ms;
}

double RandomGatherMs(const Buffer& buf, size_t accesses) {
  const uint32_t* v = buf.as<uint32_t>();
  size_t n = buf.bytes / sizeof(uint32_t);
  WallTimer t;
  uint64_t sum = 0;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < accesses; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += v[x % n];
  }
  double ms = t.ElapsedMillis();
  g_sink = sum;
  return ms;
}

double JoinBuildMs(const Buffer& buf, size_t keys) {
  // Linear-probe build into a 2x-sized table: the scattered-write pattern
  // of a hash-join build phase, without its allocation noise.
  uint64_t* table = buf.as<uint64_t>();
  size_t slots = buf.bytes / sizeof(uint64_t);
  std::memset(buf.p, 0, buf.bytes);
  WallTimer t;
  for (size_t k = 1; k <= keys; ++k) {
    uint64_t h = k * 0x9e3779b97f4a7c15ull;
    size_t s = h % slots;
    while (table[s] != 0) s = (s + 1) % slots;
    table[s] = k;
  }
  double ms = t.ElapsedMillis();
  g_sink = table[0];
  return ms;
}

double RadixClusterMs(std::span<const Bun> input, int bits,
                      arena::HugePolicy policy) {
  // The cluster scratch is allocated inside RadixCluster through the arena
  // (BunVec); the process-wide default policy is the A/B hook for it.
  arena::HugePolicy prev = arena::SetDefaultHugePolicy(policy);
  DirectMemory mem;
  WallTimer t;
  auto out = RadixCluster(input, RadixClusterOptions{bits, 1, {}}, mem);
  double ms = t.ElapsedMillis();
  CCDB_CHECK(out.ok());
  g_sink = out->tuples.empty() ? 0 : out->tuples.back().tail;
  arena::SetDefaultHugePolicy(prev);
  return ms;
}

struct AB {
  const char* name;
  double base_ms = 0;
  double huge_ms = 0;
  double speedup() const { return huge_ms > 0 ? base_ms / huge_ms : 0; }
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

  const size_t kScanBytes = smoke ? (8u << 20) : (256u << 20);
  const size_t kGatherBytes = smoke ? (8u << 20) : (128u << 20);
  const size_t kGatherAccesses = smoke ? (1u << 20) : (1u << 24);
  const size_t kKeys = smoke ? (1u << 18) : (1u << 22);
  const size_t kClusterTuples = smoke ? (1u << 19) : (1u << 23);
  const int kClusterBits = 12;  // 4096 partitions: far past 4 KB TLB reach
  const int kReps = smoke ? 2 : 3;

  std::printf("== tlb_pages: base (4 KB) vs transparent huge (2 MB) pages ==\n");
  std::printf("page=%zu B, huge page=%zu B, THP %s%s\n\n",
              arena::BasePageBytes(), arena::HugePageBytes(),
              arena::ThpAvailable() ? "available" : "UNAVAILABLE",
              smoke ? " (smoke)" : "");

  // One probe mapping decides whether the A/B means anything on this host.
  size_t granted_bytes = 0;
  {
    Buffer probe(32u << 20, arena::HugePolicy::kRequest);
    granted_bytes = probe.huge_backed;
  }
  const bool meaningful = granted_bytes > 0;
  if (!meaningful) {
    std::printf("huge pages NOT granted by the kernel (THP %s) — timings "
                "below compare identical base-page runs; recording "
                "tlb_pages_meaningful=false\n\n",
                arena::ThpAvailable() ? "available but declined" : "off");
  } else {
    std::printf("grant probe: %zu of %u MB huge-backed\n\n",
                granted_bytes >> 20, 32u);
  }

  std::vector<AB> results;
  auto run_pair = [&](const char* name, size_t bytes,
                      double (*kernel)(const Buffer&, size_t), size_t n) {
    AB ab{name};
    {
      Buffer base(bytes, arena::HugePolicy::kDisable);
      ab.base_ms = MinOverReps(kReps, kernel, base, n);
    }
    {
      Buffer huge(bytes, arena::HugePolicy::kRequest);
      ab.huge_ms = MinOverReps(kReps, kernel, huge, n);
    }
    results.push_back(ab);
  };

  run_pair("seq_scan", kScanBytes, SeqScanMs, kScanBytes / sizeof(uint32_t));
  run_pair("random_gather", kGatherBytes, RandomGatherMs, kGatherAccesses);
  run_pair("join_build", 2 * kKeys * sizeof(uint64_t), JoinBuildMs, kKeys);

  {
    // The cluster input lives on base pages in both runs; only the
    // scratch/output side (what the engine's arena actually controls for
    // queries) flips policy.
    auto rel = bench::UniqueRelation(kClusterTuples, 99);
    AB ab{"radix_cluster"};
    double base = 1e300, huge = 1e300;
    for (int r = 0; r < kReps; ++r) {
      base = std::min(base, RadixClusterMs(std::span<const Bun>(rel),
                                           kClusterBits,
                                           arena::HugePolicy::kDisable));
      huge = std::min(huge, RadixClusterMs(std::span<const Bun>(rel),
                                           kClusterBits,
                                           arena::HugePolicy::kRequest));
    }
    ab.base_ms = base;
    ab.huge_ms = huge;
    results.push_back(ab);
  }

  // Model cross-check: predicted translation cost of the cluster pass under
  // 4 KB vs 2 MB pricing (the WithPageBytes view used by ExplainCosts).
  MachineProfile host = MeasuredHostProfile();
  CostModel model(host);
  CostModel model_huge = model.WithPageBytes(arena::HugePageBytes());
  double pred_base_ms =
      model.TranslationNs(
          model.ClusterTlbMisses(kClusterBits, kClusterTuples)) *
      1e-6;
  double pred_huge_ms =
      model_huge.TranslationNs(
          model_huge.ClusterTlbMisses(kClusterBits, kClusterTuples)) *
      1e-6;

  std::printf("%-14s %10s %10s %8s\n", "kernel", "base ms", "huge ms", "x");
  for (const AB& ab : results) {
    std::printf("%-14s %10.2f %10.2f %7.2fx\n", ab.name, ab.base_ms,
                ab.huge_ms, ab.speedup());
  }
  std::printf("\nmodel (radix_cluster translation only, %s): base %.3f ms, "
              "huge %.3f ms\n",
              host.name.c_str(), pred_base_ms, pred_huge_ms);

  if (json_path.empty()) return 0;

  std::string s;
  char line[512];
  std::snprintf(line, sizeof line,
                "  \"tlb_pages\": {\n"
                "    \"page_size\": %zu,\n"
                "    \"huge_page_bytes\": %zu,\n"
                "    \"thp_available\": %s,\n"
                "    \"huge_pages_granted_bytes\": %zu,\n"
                "    \"tlb_pages_meaningful\": %s,\n"
                "    \"smoke\": %s,\n",
                arena::BasePageBytes(), arena::HugePageBytes(),
                arena::ThpAvailable() ? "true" : "false", granted_bytes,
                meaningful ? "true" : "false", smoke ? "true" : "false");
  s += line;
  std::snprintf(line, sizeof line,
                "    \"model_cluster_translation_ms\": "
                "{\"base\": %.4f, \"huge\": %.4f},\n",
                pred_base_ms, pred_huge_ms);
  s += line;
  s += "    \"kernels\": {\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const AB& ab = results[i];
    std::snprintf(line, sizeof line,
                  "      \"%s\": {\"base_ms\": %.3f, \"huge_ms\": %.3f, "
                  "\"speedup\": %.3f}%s\n",
                  ab.name, ab.base_ms, ab.huge_ms, ab.speedup(),
                  i + 1 < results.size() ? "," : "");
    s += line;
  }
  s += "    }\n  }";
  if (!bench::MergeJsonSection(json_path, s)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nmerged \"tlb_pages\" into %s\n", json_path.c_str());
  return 0;
}
