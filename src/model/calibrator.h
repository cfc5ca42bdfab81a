// Runtime calibration of the host's memory hierarchy, in the spirit of the
// paper's footnote-4 calibration ("we calibrated lTLB=228ns, lL2=24ns,
// lMem=412ns, wc=50ns") and of the Calibrator tool the authors later
// released. Uses a dependent-load pointer chase so the measured latency is
// the true (unoverlapped) access latency.
#ifndef CCDB_MODEL_CALIBRATOR_H_
#define CCDB_MODEL_CALIBRATOR_H_

#include <cstdint>
#include <vector>

#include "mem/machine.h"
#include "util/status.h"

namespace ccdb {

struct CalibrationPoint {
  size_t working_set_bytes = 0;
  double ns_per_access = 0;
};

struct CalibrationReport {
  /// Latency curve: random pointer chase over growing working sets.
  std::vector<CalibrationPoint> latency_curve;
  /// Estimated latencies (plateau detection over the curve).
  double l1_ns = 0;    ///< hit latency of L1 (smallest working sets)
  double l2_ns = 0;    ///< lL2: L1-miss penalty
  double mem_ns = 0;   ///< lMem: L2-miss penalty
  double tlb_ns = 0;   ///< lTLB estimate (page-stride chase)
  /// Cache geometry as reported by the OS (sysconf), 0 when unknown.
  size_t l1_bytes = 0, l1_line = 0, l2_bytes = 0, l2_line = 0;
};

/// Measures one random pointer chase: `ws_bytes` working set, one pointer
/// per `stride_bytes`. Returns ns per dependent load.
double MeasureChaseNs(size_t ws_bytes, size_t stride_bytes,
                      size_t iterations = 1 << 20);

/// The host's L2 capacity as the calibration layer measures it (OS-reported
/// geometry, the same source CalibrationReport::l2_bytes uses). Cached
/// after the first call — cheap enough to consult per plan — and 0 when the
/// platform doesn't report cache sizes, in which case callers fall back to
/// their static MachineProfile. Consumed by DefaultScanChunkRows
/// (model/planner.h) to size cache-resident scan chunks for the actual
/// host instead of the generic profile.
size_t MeasuredL2CacheBytes();

/// The host's large-copy bandwidth as ns per byte, measured with a
/// memory-to-memory copy over an L2-spilling buffer. Cached after the first
/// call (one ~milliseconds measurement per process); returns 0 when the
/// clock cannot resolve the copy. Consumed by MeasuredHostProfile(), which
/// prices one sequential (prefetched) cache-line miss as one line of this
/// copy stream (MachineProfile::lat.mem_seq_ns).
double MeasuredCopyNsPerByte();

/// The host's TLB as measured by a differential page-stride pointer chase
/// (the Calibrator tool's method): for a growing number of pages P, chase
/// P slots spread one per page (stride = page + line, so cache sets do not
/// alias) and P slots packed line-dense (same cache footprint, ~no TLB
/// pressure); the latency difference isolates translation. The reach
/// plateau gives `entries`, each jump in the difference curve is a `level`,
/// and the tail plateau is the full page-walk cost `walk_ns`.
struct TlbInfo {
  size_t entries = 0;     ///< total reach in pages (largest TLB level)
  int levels = 0;         ///< distinct latency steps seen in the curve
  size_t page_bytes = 0;  ///< base page size the probe ran on
  double walk_ns = 0;     ///< full page-walk cost past all TLB levels
  bool measured = false;  ///< false: probe inconclusive (noisy host/VM) —
                          ///< callers fall back to their static profile
};

/// Measures (once per process, cached like MeasuredL2CacheBytes) the host
/// TLB geometry. The probe buffer is forced onto base pages
/// (HugePolicy::kDisable) so THP=always hosts cannot silently void it.
const TlbInfo& MeasuredTlbGeometry();

/// The planner's default host profile: GenericX86 geometry refined with
/// sysconf cache sizes, a quick 3-point latency probe (L1/L2/memory) and
/// MeasuredTlbGeometry(). Cached after the first call. Falls back to plain
/// GenericX86 when measurement is unavailable or inconsistent (and always
/// under CCDB_NO_CALIBRATION=1, the deterministic-CI escape hatch).
const MachineProfile& MeasuredHostProfile();

/// Runs the full calibration (sub-second with default settings).
CalibrationReport Calibrate();

/// A MachineProfile for the host: geometry from sysconf (falling back to
/// GenericX86 values), latencies from Calibrate().
MachineProfile CalibratedHostProfile();

}  // namespace ccdb

#endif  // CCDB_MODEL_CALIBRATOR_H_
