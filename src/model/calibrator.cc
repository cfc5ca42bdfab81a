#include "model/calibrator.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "mem/arena.h"
#include "util/aligned.h"
#include "util/bits.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ccdb {
namespace {

/// Random pointer chase over `slots` (>= 2) pointers placed `stride_bytes`
/// apart in `buf`, which the caller allocates: one Sattolo cycle, so each
/// load depends on the previous one and the chase covers every slot.
/// Returns ns per dependent load over `iterations` loads after a warm-up
/// lap.
double ChaseNs(uint8_t* buf, size_t slots, size_t stride_bytes,
               size_t iterations) {
  std::vector<uint32_t> perm(slots);
  std::iota(perm.begin(), perm.end(), 0u);
  Rng rng(0xC0FFEE);
  for (size_t i = slots - 1; i > 0; --i) {
    size_t j = rng.NextBelow(i);  // j < i: guarantees a single cycle
    std::swap(perm[i], perm[j]);
  }
  auto slot_ptr = [&](size_t s) {
    return reinterpret_cast<uint64_t*>(buf + s * stride_bytes);
  };
  for (size_t i = 0; i < slots; ++i) {
    *slot_ptr(i) = reinterpret_cast<uint64_t>(slot_ptr(perm[i]));
  }

  volatile uint64_t* p = slot_ptr(0);
  for (size_t i = 0; i < slots; ++i) p = reinterpret_cast<uint64_t*>(*p);
  WallTimer t;
  for (size_t i = 0; i < iterations; ++i) {
    p = reinterpret_cast<uint64_t*>(*p);
  }
  double ns = static_cast<double>(t.ElapsedNanos()) /
              static_cast<double>(iterations);
  // Defeat dead-code elimination.
  if (reinterpret_cast<uint64_t>(p) == 1) std::abort();
  return ns;
}

/// Cache geometry as the OS reports it; 0 where unknown.
struct OsCacheGeometry {
  size_t l1_bytes = 0, l1_line = 0, l2_bytes = 0, l2_line = 0;
};

const OsCacheGeometry& OsCaches() {
  static const OsCacheGeometry geometry = [] {
    OsCacheGeometry g;
#ifdef _SC_LEVEL1_DCACHE_SIZE
    auto read = [](int name) {
      long v = sysconf(name);
      return v > 0 ? static_cast<size_t>(v) : size_t{0};
    };
    g.l1_bytes = read(_SC_LEVEL1_DCACHE_SIZE);
    g.l1_line = read(_SC_LEVEL1_DCACHE_LINESIZE);
    g.l2_bytes = read(_SC_LEVEL2_CACHE_SIZE);
    g.l2_line = read(_SC_LEVEL2_CACHE_LINESIZE);
#endif
    return g;
  }();
  return geometry;
}

/// The chase stride that puts one pointer per cache line.
size_t ChaseLineBytes() {
  size_t line = OsCaches().l1_line;
  return line != 0 && IsPowerOfTwo(line) ? line : 64;
}

/// The host's large-copy cost in ns per byte: a memory-to-memory copy over
/// an L2-spilling buffer; 0 when the clock cannot resolve it.
double MeasureCopyNsPerByte() {
  // 8 MB source/destination: past L2 on any profiled machine, so the copy
  // streams through memory like a sequential scan does. Best of a few
  // reps filters scheduler noise.
  constexpr size_t kBytes = 8 * 1024 * 1024;
  constexpr int kReps = 5;
  AlignedBuffer src(kBytes, 4096), dst(kBytes, 4096);
  std::memset(src.data(), 0xA5, kBytes);
  double best_ns = 0;
  for (int r = 0; r < kReps; ++r) {
    WallTimer t;
    std::memcpy(dst.data(), src.data(), kBytes);
    double ns = static_cast<double>(t.ElapsedNanos());
    if (r == 0 || ns < best_ns) best_ns = ns;
    // Defeat dead-store elimination across reps.
    if (dst.data()[r] != 0xA5) std::abort();
  }
  return best_ns / static_cast<double>(kBytes);
}

TlbInfo MeasureTlbGeometry() {
  TlbInfo info;
  info.page_bytes = arena::BasePageBytes();
  const size_t line = ChaseLineBytes();

  // One chase arm over a buffer pinned to base pages (arena block,
  // HugePolicy::kDisable): under THP=always, a malloc'd probe buffer would
  // get huge-backed and the TLB probe would see no misses at all.
  auto arm_ns = [](size_t slots, size_t stride_bytes, size_t iters) {
    void* block =
        arena::AllocateBlock(slots * stride_bytes, arena::HugePolicy::kDisable);
    double ns =
        ChaseNs(static_cast<uint8_t*>(block), slots, stride_bytes, iters);
    arena::FreeBlock(block);
    return ns;
  };

  // Page counts to probe: dense enough around typical L1/L2 TLB sizes
  // (64, 1024, 1536, 2048) to bracket the reach within ~1.5x.
  static constexpr size_t kPages[] = {8,   12,  16,   24,   32,   48,  64,
                                      96,  128, 192,  256,  384,  512, 768,
                                      1024, 1536, 2048, 3072, 4096, 6144};
  constexpr size_t kIters = size_t{1} << 15;

  std::vector<double> diff;
  diff.reserve(std::size(kPages));
  for (size_t pages : kPages) {
    // TLB arm: one slot per page; page+line stride keeps the chased lines
    // from aliasing in the caches.
    double tlb_arm = arm_ns(pages, info.page_bytes + line, kIters);
    // Baseline arm: same number of cache lines, packed densely so the page
    // footprint stays tiny. The difference isolates translation cost.
    double base_arm = arm_ns(pages, line, kIters);
    diff.push_back(std::max(tlb_arm - base_arm, 0.0));
  }

  double range = *std::max_element(diff.begin(), diff.end());
  // Below ~3 ns of total translation signal the curve is noise (bare-metal
  // walk costs are >= tens of ns; tiny ranges happen under emulation or
  // clock trouble). Report "not measured" and let callers keep statics.
  if (range < 3.0) return info;

  // A level boundary is a jump of >= 25% of the full signal. The last jump
  // marks the end of total TLB reach; the tail median is the walk cost.
  size_t last_jump = 0;
  int levels = 0;
  for (size_t i = 0; i + 1 < diff.size(); ++i) {
    if (diff[i + 1] - diff[i] >= 0.25 * range) {
      last_jump = i;
      ++levels;
    }
  }
  if (levels == 0) return info;
  info.entries = kPages[last_jump];
  info.levels = levels;
  std::vector<double> tail(diff.begin() + static_cast<long>(last_jump) + 1,
                           diff.end());
  std::nth_element(tail.begin(), tail.begin() + tail.size() / 2, tail.end());
  info.walk_ns = tail[tail.size() / 2];
  info.measured = info.entries >= 8 && info.walk_ns > 0;
  return info;
}

}  // namespace

double MeasureChaseNs(size_t ws_bytes, size_t stride_bytes,
                      size_t iterations) {
  size_t slots = std::max<size_t>(ws_bytes / stride_bytes, 2);
  AlignedBuffer buf(slots * stride_bytes, 4096);
  return ChaseNs(buf.data(), slots, stride_bytes, iterations);
}

size_t MeasuredL2CacheBytes() { return OsCaches().l2_bytes; }

const TlbInfo& MeasuredTlbGeometry() {
  static const TlbInfo info = MeasureTlbGeometry();
  return info;
}

const MachineProfile& MeasuredHostProfile() {
  static const MachineProfile profile = [] {
    MachineProfile m = MachineProfile::GenericX86();
    m.name = "measured-host";
    const OsCacheGeometry& os = OsCaches();
    if (os.l1_bytes != 0 && os.l1_line != 0 && IsPowerOfTwo(os.l1_line)) {
      m.l1.capacity_bytes = NextPowerOfTwo(os.l1_bytes);
      m.l1.line_bytes = os.l1_line;
    }
    if (os.l2_bytes != 0 && os.l2_line != 0 && IsPowerOfTwo(os.l2_line)) {
      m.l2.capacity_bytes = NextPowerOfTwo(os.l2_bytes);
      m.l2.line_bytes = os.l2_line;
    }
    // Quick 3-point latency probe (a few ms; the full Calibrate() curve is
    // for reports, this is the per-process planning default).
    constexpr size_t kQuickIters = size_t{1} << 16;
    const size_t line = ChaseLineBytes();
    double l1_hit = MeasureChaseNs(16 * 1024, line, kQuickIters);
    double l2_hit = MeasureChaseNs(256 * 1024, line, kQuickIters);
    double mem_hit =
        MeasureChaseNs(32 * 1024 * 1024, line, kQuickIters);
    if (l1_hit > 0 && l2_hit > l1_hit && mem_hit > l2_hit) {
      m.lat.l2_ns = std::max(l2_hit - l1_hit, 0.5);
      m.lat.mem_ns = std::max(mem_hit - l2_hit, 1.0);
    } else {
      // Inconsistent probe (VM clock, contended host): keep the static
      // GenericX86 latencies, but still try the TLB geometry below.
      m.name = "measured-host(static-lat)";
    }
    const TlbInfo& tlb = MeasuredTlbGeometry();
    if (tlb.measured) {
      m.tlb.entries = tlb.entries;
      m.tlb.page_bytes = tlb.page_bytes;
      m.tlb.associativity = 0;
      m.lat.tlb_ns = std::max(tlb.walk_ns, 1.0);
    }
    // Sequential-miss cost from copy bandwidth: one line of streamed
    // payload, which the prefetcher overlaps — on out-of-order hosts this
    // is several times cheaper than the dependent-load lMem, and pricing
    // the models' sequential-sweep terms at lMem is exactly what made
    // their wall-clock predictions 5-15x pessimistic.
    double copy_ns_per_byte = MeasureCopyNsPerByte();
    if (copy_ns_per_byte > 0) {
      double seq = copy_ns_per_byte * static_cast<double>(m.l2.line_bytes);
      if (seq < m.lat.mem_ns) m.lat.mem_seq_ns = std::max(seq, 0.5);
    }
    return m;
  }();
  return profile;
}

CalibrationReport Calibrate() {
  CalibrationReport rep;
  // 8 KB .. 64 MB working sets, one pointer per line so every access
  // misses spatially.
  const size_t line = ChaseLineBytes();
  constexpr size_t kIters = 1 << 19;
  for (size_t ws = 8 * 1024; ws <= 64 * 1024 * 1024; ws *= 2) {
    rep.latency_curve.push_back({ws, MeasureChaseNs(ws, line, kIters)});
  }
  return rep;
}

}  // namespace ccdb
