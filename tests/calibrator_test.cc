// Calibrator smoke tests: measurements are positive and ordered sensibly,
// and the host profile the planner prices with validates. (Absolute values are
// machine-dependent by design; these tests assert structure, not numbers.)
#include <gtest/gtest.h>

#include "model/calibrator.h"

namespace ccdb {
namespace {

TEST(CalibratorTest, ChaseLatencyIsPositive) {
  double ns = MeasureChaseNs(64 * 1024, 64, 1 << 16);
  EXPECT_GT(ns, 0.0);
  EXPECT_LT(ns, 10000.0);  // sanity: < 10us per load
}

TEST(CalibratorTest, LargerWorkingSetsAreNotFaster) {
  // L1-resident vs far-beyond-cache working sets. Allow generous slack for
  // noisy environments, but the big set must not be *faster*.
  double small = MeasureChaseNs(16 * 1024, 64, 1 << 16);
  double large = MeasureChaseNs(64 * 1024 * 1024, 64, 1 << 16);
  EXPECT_GE(large, small * 0.8);
}

TEST(CalibratorTest, ReportIsStructurallySound) {
  CalibrationReport rep = Calibrate();
  ASSERT_FALSE(rep.latency_curve.empty());
  for (const auto& pt : rep.latency_curve) {
    EXPECT_GT(pt.working_set_bytes, 0u);
    EXPECT_GT(pt.ns_per_access, 0.0);
  }
}

TEST(CalibratorTest, HostProfileValidates) {
  const MachineProfile& m = MeasuredHostProfile();
  EXPECT_TRUE(m.Validate().ok()) << m.Validate().ToString();
  EXPECT_EQ(m.name.rfind("measured-host", 0), 0u) << m.name;
  EXPECT_GT(m.lat.mem_ns, 0.0);
}

}  // namespace
}  // namespace ccdb
