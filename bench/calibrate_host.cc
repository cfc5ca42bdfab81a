// Prints the host's measured latency curve and the host profile the planner
// prices with (MeasuredHostProfile) — the runtime analogue of the paper's
// footnote-4 calibration. Also probes the perf_event hardware counters and
// reports whether the real R10000-style counter path is available in this
// environment. Exits non-zero when the host profile does not validate.
#include <cstdio>

#include "mem/hw_counters.h"
#include "model/calibrator.h"
#include "util/table_printer.h"

namespace ccdb {
namespace {

int Run() {
  std::printf("== Host calibration (cf. paper footnote 4) ==\n\n");
  CalibrationReport rep = Calibrate();

  TablePrinter curve({"working set", "ns/access"});
  for (const auto& pt : rep.latency_curve) {
    char ws[32];
    if (pt.working_set_bytes >= 1024 * 1024) {
      std::snprintf(ws, sizeof(ws), "%zu MB", pt.working_set_bytes >> 20);
    } else {
      std::snprintf(ws, sizeof(ws), "%zu KB", pt.working_set_bytes >> 10);
    }
    curve.AddRow({ws, TablePrinter::Fmt(pt.ns_per_access, 2)});
  }
  curve.Print(stdout);

  const MachineProfile& m = MeasuredHostProfile();
  std::printf("\nHost profile (%s), as the planner prices:\n", m.name.c_str());
  std::printf("  L1 %zu KB / %zu B lines, L2 %zu KB / %zu B lines\n",
              m.l1.capacity_bytes >> 10, m.l1.line_bytes,
              m.l2.capacity_bytes >> 10, m.l2.line_bytes);
  std::printf("  lL2 %.1f ns   lMem %.1f ns   sequential miss %.1f ns\n",
              m.lat.l2_ns, m.lat.mem_ns, m.lat.effective_mem_seq_ns());
  std::printf("  TLB %zu entries x %zu KB pages (%s), lTLB %.1f ns\n",
              m.tlb.entries, m.tlb.page_bytes >> 10,
              MeasuredTlbGeometry().measured ? "measured" : "static",
              m.lat.tlb_ns);
  std::printf("(paper's Origin2000:  lL2=24 ns, lMem=412 ns, lTLB=228 ns)\n");

  HwCounters hw;
  Status s = hw.Open();
  if (s.ok()) {
    std::printf("\nperf_event hardware counters: AVAILABLE (cycles, L1D, LLC, dTLB)\n");
  } else {
    std::printf("\nperf_event hardware counters: %s\n", s.ToString().c_str());
    std::printf("Figure benches use the exact software simulator instead.\n");
  }

  Status valid = m.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "host profile does not validate: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ccdb

int main() { return ccdb::Run(); }
