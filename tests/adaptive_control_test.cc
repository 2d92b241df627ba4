// Tests for the self-tuning (adaptive) PID: plant-gain identification,
// gain rescaling, convergence on plants the fixed-gain controller is
// mistuned for, and the throttle-policy wiring.

#include <gtest/gtest.h>

#include <cmath>

#include "src/control/adaptive_pid.h"
#include "src/slacker/options.h"
#include "src/slacker/throttle_policy.h"

namespace slacker::control {
namespace {

AdaptivePidOptions TestOptions(double setpoint = 1000.0) {
  AdaptivePidOptions options;
  options.base.setpoint = setpoint;
  options.base.output_min = 0.0;
  options.base.output_max = 50.0;
  options.reference_gain = 40.0;
  return options;
}

TEST(AdaptivePidOptionsTest, Validation) {
  EXPECT_TRUE(TestOptions().Validate().ok());
  AdaptivePidOptions bad = TestOptions();
  bad.reference_gain = 0;
  EXPECT_FALSE(bad.Validate().ok());
}

// First-order plant with configurable sensitivity.
struct TestPlant {
  double base, gain, alpha, state;
  explicit TestPlant(double base_ms, double gain_ms_per_mbps,
                     double smoothing = 0.5)
      : base(base_ms), gain(gain_ms_per_mbps), alpha(smoothing),
        state(base_ms) {}
  double Step(double u) {
    state += alpha * (base + gain * u - state);
    return state;
  }
};

TEST(AdaptivePidTest, IdentifiesPlantGain) {
  AdaptivePidController pid(TestOptions());
  // True steady-state gain 25 (reference is 40); moderate smoothing so
  // the closed loop stays calm and the transient is informative.
  TestPlant plant(100.0, 25.0, 0.4);
  double pv = plant.state;
  for (int i = 0; i < 200; ++i) pv = plant.Step(pid.Update(pv, 1.0));
  // The RLS estimate should land in the right ballpark (identification
  // from closed-loop data is approximate by nature).
  EXPECT_GT(pid.estimated_gain(), 25.0 * 0.5);
  EXPECT_LT(pid.estimated_gain(), 25.0 * 1.8);
  // With the loop calm (damping 1), the rescale is ref / estimate.
  EXPECT_NEAR(pid.gain_scale(), 40.0 / pid.estimated_gain(), 1e-9);
  EXPECT_NEAR(pv, 1000.0, 50.0);  // And it regulates.
}

TEST(AdaptivePidTest, ConvergesOnReferencePlant) {
  AdaptivePidController pid(TestOptions());
  TestPlant plant(100.0, 40.0, 0.5);
  double pv = plant.state;
  for (int i = 0; i < 500; ++i) pv = plant.Step(pid.Update(pv, 1.0));
  EXPECT_NEAR(pv, 1000.0, 120.0);
}

class AdaptiveGainSweep : public ::testing::TestWithParam<double> {};

TEST_P(AdaptiveGainSweep, ConvergesAcrossPlantSensitivities) {
  // Plants from 4x less to 4x more sensitive than the tuning point.
  const double plant_gain = GetParam();
  AdaptivePidController pid(TestOptions());
  TestPlant plant(100.0, plant_gain, 0.5);
  double pv = plant.state;
  for (int i = 0; i < 800; ++i) pv = plant.Step(pid.Update(pv, 1.0));
  EXPECT_NEAR(pv, 1000.0, 150.0) << "plant gain " << plant_gain;
}

// Plant gains from half to 4x the tuning point. (Below ~18 ms/MBps the
// 1000 ms setpoint is unreachable within the 50 MB/s actuator range —
// not a controller property worth asserting.)
INSTANTIATE_TEST_SUITE_P(PlantGains, AdaptiveGainSweep,
                         ::testing::Values(20.0, 30.0, 40.0, 80.0, 160.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "gain" + std::to_string(
                                               static_cast<int>(info.param));
                         });

TEST(AdaptivePidTest, FixedGainsOscillateWhereAdaptiveSettles) {
  // On a 4x-more-sensitive plant the fixed paper gains ring; the
  // adaptive controller shrinks its gains and settles with visibly
  // smaller steady-state swing.
  const double plant_gain = 160.0;
  auto swing = [&](auto&& controller) {
    TestPlant plant(100.0, plant_gain, 0.5);
    double pv = plant.state;
    for (int i = 0; i < 400; ++i) pv = plant.Step(controller.Update(pv, 1.0));
    double lo = 1e18, hi = -1e18;
    for (int i = 0; i < 100; ++i) {
      pv = plant.Step(controller.Update(pv, 1.0));
      lo = std::min(lo, pv);
      hi = std::max(hi, pv);
    }
    return hi - lo;
  };
  AdaptivePidOptions options = TestOptions();
  AdaptivePidController adaptive(options);
  PidController fixed(options.base, PidForm::kVelocity);
  const double adaptive_swing = swing(adaptive);
  const double fixed_swing = swing(fixed);
  EXPECT_LT(adaptive_swing, fixed_swing * 0.8)
      << "adaptive " << adaptive_swing << " vs fixed " << fixed_swing;
}

TEST(AdaptivePidTest, OutputClampedAndResettable) {
  AdaptivePidController pid(TestOptions());
  for (int i = 0; i < 500; ++i) pid.Update(0.0, 1.0);
  EXPECT_LE(pid.output(), 50.0);
  EXPECT_GE(pid.output(), 0.0);
  pid.Reset(10.0);
  EXPECT_DOUBLE_EQ(pid.output(), 10.0);
  EXPECT_DOUBLE_EQ(pid.gain_scale(), 1.0);
}

TEST(AdaptivePidTest, NoExcitationNoDrift) {
  AdaptivePidController pid(TestOptions());
  // Constant pv at the setpoint: output holds still, so there is no
  // excitation and the gain estimate must not drift.
  const double initial = pid.estimated_gain();
  for (int i = 0; i < 100; ++i) pid.Update(1000.0, 1.0);
  EXPECT_DOUBLE_EQ(pid.estimated_gain(), initial);
}

TEST(AdaptiveThrottlePolicyTest, WiredThroughFactory) {
  LatencyMonitor source(3.0), target(3.0);
  MigrationOptions options;
  options.throttle = ThrottleKind::kAdaptivePid;
  options.pid.setpoint = 1000.0;
  auto policy = MakeThrottlePolicy(options, &source, &target);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->name(), "slacker-adaptive-pid");
  EXPECT_DOUBLE_EQ(policy->InitialRateMbps(), 0.0);
  source.Record(0.5, 100.0);
  EXPECT_GT(policy->OnTick(1.0, 1.0), 0.0);
}

}  // namespace
}  // namespace slacker::control
