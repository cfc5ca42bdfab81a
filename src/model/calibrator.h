// Runtime calibration of the host's memory hierarchy, in the spirit of the
// paper's footnote-4 calibration ("we calibrated lTLB=228ns, lL2=24ns,
// lMem=412ns, wc=50ns") and of the Calibrator tool the authors later
// released. Uses a dependent-load pointer chase so the measured latency is
// the true (unoverlapped) access latency.
//
// MeasuredHostProfile() is the one host profile: the planner prices with
// it, and bench `--profile=host`, `calibrate_host` and `cache_explorer`
// print and use the same numbers. Calibrate() only adds the full latency
// curve for reports.
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
};

/// Measures one random pointer chase: `ws_bytes` working set, one pointer
/// per `stride_bytes`. Returns ns per dependent load.
double MeasureChaseNs(size_t ws_bytes, size_t stride_bytes,
                      size_t iterations = 1 << 20);

/// The host's L2 capacity as the OS reports it (sysconf), 0 when the
/// platform doesn't report cache sizes, in which case callers fall back to
/// their static MachineProfile. Cached after the first call — cheap enough
/// to consult per plan. Consumed by DefaultScanChunkRows (model/planner.h)
/// to size cache-resident scan chunks for the actual host instead of the
/// generic profile.
size_t MeasuredL2CacheBytes();

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

/// The host profile: GenericX86 geometry refined with the OS-reported
/// cache sizes, a quick 3-point latency probe (lL2, lMem), the sequential
/// miss priced as one L2 line of measured copy bandwidth (mem_seq_ns) and
/// MeasuredTlbGeometry(). Cached after the first call. Keeps GenericX86's
/// latencies (name "measured-host(static-lat)") when the latency probe is
/// inconsistent, and its TLB when the TLB probe is inconclusive.
const MachineProfile& MeasuredHostProfile();

/// Measures the full latency curve (sub-second with default settings).
CalibrationReport Calibrate();

}  // namespace ccdb

#endif  // CCDB_MODEL_CALIBRATOR_H_
