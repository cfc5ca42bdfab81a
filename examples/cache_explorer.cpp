// Cache explorer: measure THIS machine the way the paper measured the
// Origin2000.
//
//   1. Calibrate the host: latency curve over growing working sets, then
//      the lL2/lMem/lTLB the planner prices with (paper footnote 4).
//   2. Re-run the paper's §2 stride-scan experiment on the host and on the
//      simulated Origin2000, side by side.
//   3. Show the same experiment through perf_event hardware counters when
//      the environment allows it.
#include <cstdio>

#include "algo/stride_scan.h"
#include "mem/hw_counters.h"
#include "model/calibrator.h"
#include "util/aligned.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace ccdb;

int main() {
  // ---- 1. calibration ------------------------------------------------------
  std::printf("calibrating host (pointer-chase latency curve)...\n\n");
  CalibrationReport rep = Calibrate();
  TablePrinter curve({"working set (KB)", "ns/load"});
  for (const auto& pt : rep.latency_curve) {
    curve.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(
                      pt.working_set_bytes / 1024)),
                  TablePrinter::Fmt(pt.ns_per_access, 2)});
  }
  curve.Print(stdout);
  const MachineProfile& host = MeasuredHostProfile();
  std::printf("\nhost profile (%s): L1 %zu KB, L2 %zu KB, %zu B lines; "
              "lL2 %.1f ns, lMem %.1f ns, sequential miss %.1f ns; "
              "TLB %zu entries, lTLB %.1f ns\n",
              host.name.c_str(), host.l1.capacity_bytes >> 10,
              host.l2.capacity_bytes >> 10, host.l2.line_bytes,
              host.lat.l2_ns, host.lat.mem_ns,
              host.lat.effective_mem_seq_ns(), host.tlb.entries,
              host.lat.tlb_ns);
  std::printf("paper's Origin2000: lL2 24 ns, lMem 412 ns, lTLB 228 ns\n");

  // ---- 2. the §2 experiment: host vs simulated Origin2000 ------------------
  constexpr size_t kIters = 200000;
  AlignedBuffer buf(kIters * 256 + 4096, 4096);
  for (size_t i = 0; i < buf.size(); i += 4096) buf.data()[i] = 1;
  DirectMemory direct;
  MachineProfile origin = MachineProfile::Origin2000();

  std::printf("\nFigure-3 scan, host measured vs simulated Origin2000 stalls:\n");
  TablePrinter scan({"stride", "host_ms", "origin2k_sim_stall_ms"});
  for (size_t stride : {1u, 8u, 32u, 64u, 128u, 256u}) {
    double host_ms = MinTimeMillis(3, [&] {
      volatile uint64_t sink =
          StrideScanSum(buf.data(), buf.size(), stride, kIters, direct);
      (void)sink;
    });
    MemoryHierarchy h(origin);
    SimulatedMemory sim(&h);
    StrideScanSum(buf.data(), buf.size(), stride, kIters / 10, sim);
    double stall_ms = h.events().StallNanos(origin.lat) * 10 * 1e-6;
    scan.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(stride)),
                 TablePrinter::Fmt(host_ms, 3),
                 TablePrinter::Fmt(stall_ms, 1)});
  }
  scan.Print(stdout);

  // ---- 3. hardware counters, if the kernel allows --------------------------
  HwCounters hw;
  Status st = hw.Open();
  if (!st.ok()) {
    std::printf("\nhardware counters: %s\n", st.ToString().c_str());
    return 0;
  }
  std::printf("\nhardware counters available — stride scan, measured events:\n");
  TablePrinter hwt({"stride", "cycles/iter", "L1miss/iter", "LLCmiss/iter",
                    "dTLBmiss/iter"});
  for (size_t stride : {1u, 32u, 128u, 256u}) {
    CCDB_CHECK(hw.Start().ok());
    volatile uint64_t sink =
        StrideScanSum(buf.data(), buf.size(), stride, kIters, direct);
    (void)sink;
    uint64_t cycles = 0;
    auto ev = hw.Stop(&cycles);
    CCDB_CHECK(ev.ok());
    auto per = [&](uint64_t v) {
      return TablePrinter::Fmt(static_cast<double>(v) / kIters, 3);
    };
    hwt.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(stride)),
                per(cycles), per(ev->l1_misses), per(ev->l2_misses),
                per(ev->tlb_misses)});
  }
  hwt.Print(stdout);
  return 0;
}
