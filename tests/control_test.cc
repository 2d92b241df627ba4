// Tests for the PID controller (both forms) and the latency monitor —
// including closed-loop convergence properties on a synthetic plant.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/control/latency_monitor.h"
#include "src/control/pid.h"

namespace slacker::control {
namespace {

PidConfig TestConfig(double setpoint = 1000.0) {
  PidConfig config;
  config.setpoint = setpoint;
  config.output_min = 0.0;
  config.output_max = 50.0;
  return config;
}

// ---------------------------------------------------------------- Config

TEST(PidConfigTest, DefaultsArePaperGains) {
  PidConfig config;
  EXPECT_DOUBLE_EQ(config.kp, 0.025);
  EXPECT_DOUBLE_EQ(config.ki, 0.005);
  EXPECT_DOUBLE_EQ(config.kd, 0.015);
  EXPECT_TRUE(TestConfig().Validate().ok());
}

TEST(PidConfigTest, RejectsBadValues) {
  PidConfig config = TestConfig();
  config.kp = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = TestConfig();
  config.output_min = config.output_max;
  EXPECT_FALSE(config.Validate().ok());
  config = TestConfig();
  config.setpoint = 0;
  EXPECT_FALSE(config.Validate().ok());
}

// ---------------------------------------------------------------- Velocity

TEST(VelocityPidTest, RampsUpWhenBelowSetpoint) {
  PidController pid(TestConfig(1000.0), PidForm::kVelocity);
  // Latency steady at 100 ms, far below the 1000 ms setpoint: the
  // integral path pushes the throttle up every tick.
  double prev = pid.output();
  for (int i = 0; i < 5; ++i) {
    const double out = pid.Update(100.0, 1.0);
    EXPECT_GT(out, prev);
    prev = out;
  }
  // Ki * error * dt = 0.005 * 900 = 4.5 MB/s per tick.
  EXPECT_NEAR(pid.output(), 5 * 4.5, 1e-6);
}

TEST(VelocityPidTest, BacksOffWhenAboveSetpoint) {
  PidController pid(TestConfig(1000.0), PidForm::kVelocity);
  pid.Reset(40.0);
  for (int i = 0; i < 3; ++i) pid.Update(3000.0, 1.0);
  EXPECT_LT(pid.output(), 40.0);
}

TEST(VelocityPidTest, OutputClamped) {
  PidController pid(TestConfig(1000.0), PidForm::kVelocity);
  for (int i = 0; i < 1000; ++i) pid.Update(0.0, 1.0);
  EXPECT_DOUBLE_EQ(pid.output(), 50.0);
  for (int i = 0; i < 1000; ++i) pid.Update(100000.0, 1.0);
  EXPECT_DOUBLE_EQ(pid.output(), 0.0);
}

TEST(VelocityPidTest, NoWindupAtSaturation) {
  // Saturate high for a long time, then demand a reduction: the
  // velocity form responds immediately (no accumulated error to burn
  // off) — the §4.2.3 rationale.
  PidController pid(TestConfig(1000.0), PidForm::kVelocity);
  for (int i = 0; i < 500; ++i) pid.Update(100.0, 1.0);
  EXPECT_DOUBLE_EQ(pid.output(), 50.0);
  pid.Update(1500.0, 1.0);
  pid.Update(1500.0, 1.0);
  pid.Update(1500.0, 1.0);
  EXPECT_LT(pid.output(), 50.0);
}

TEST(VelocityPidTest, ZeroErrorHoldsOutput) {
  PidController pid(TestConfig(1000.0), PidForm::kVelocity);
  pid.Reset(20.0);
  for (int i = 0; i < 10; ++i) pid.Update(1000.0, 1.0);
  EXPECT_NEAR(pid.output(), 20.0, 1e-9);
}

TEST(VelocityPidTest, ZeroDtIsNoop) {
  PidController pid(TestConfig(), PidForm::kVelocity);
  pid.Reset(10.0);
  EXPECT_DOUBLE_EQ(pid.Update(500.0, 0.0), 10.0);
}

TEST(VelocityPidTest, SetpointChangeTakesEffect) {
  PidController pid(TestConfig(1000.0), PidForm::kVelocity);
  pid.Reset(20.0);
  pid.Update(1000.0, 1.0);
  pid.set_setpoint(2000.0);
  const double before = pid.output();
  pid.Update(1000.0, 1.0);  // Now 1000 ms below setpoint: speed up.
  EXPECT_GT(pid.output(), before);
}

// ---------------------------------------------------------------- Positional

TEST(PositionalPidTest, WindsUpRelativeToVelocityForm) {
  // Demonstrates the failure mode the paper avoids: after long
  // saturation, the positional controller's accumulated integral keeps
  // pushing the output up during overload, while the velocity form
  // (which holds no error sum) backs off much further.
  PidConfig config = TestConfig(1000.0);
  PidController positional(config, PidForm::kPositional);
  PidController velocity(config, PidForm::kVelocity);
  for (int i = 0; i < 500; ++i) {
    positional.Update(100.0, 1.0);
    velocity.Update(100.0, 1.0);
  }
  EXPECT_DOUBLE_EQ(positional.output(), 50.0);
  EXPECT_DOUBLE_EQ(velocity.output(), 50.0);
  for (int i = 0; i < 3; ++i) {
    positional.Update(1500.0, 1.0);
    velocity.Update(1500.0, 1.0);
  }
  EXPECT_GT(positional.output(), velocity.output() + 10.0);
  EXPECT_GT(positional.output(), 20.0);  // Integral keeps it elevated.
}

TEST(PositionalPidTest, ProportionalOnlyTracksError) {
  PidConfig config = TestConfig(100.0);
  config.kp = 0.1;
  config.ki = 0.0;
  config.kd = 0.0;
  PidController pid(config, PidForm::kPositional);
  EXPECT_NEAR(pid.Update(50.0, 1.0), 5.0, 1e-9);   // e=50 -> 5.
  EXPECT_NEAR(pid.Update(90.0, 1.0), 1.0, 1e-9);   // e=10 -> 1.
  EXPECT_NEAR(pid.Update(200.0, 1.0), 0.0, 1e-9);  // Negative clamps to 0.
}

// Closed-loop convergence on a first-order plant: latency rises with
// migration speed, pv(t+1) = base + gain * u(t), low-pass filtered.
class FirstOrderPlant {
 public:
  FirstOrderPlant(double base, double gain, double alpha)
      : base_(base), gain_(gain), alpha_(alpha), state_(base) {}
  double Step(double input, double /*dt*/) {
    const double target = base_ + gain_ * input;
    state_ += alpha_ * (target - state_);
    return state_;
  }

 private:
  double base_, gain_, alpha_, state_;
};

struct GainGrid {
  double kp, ki, kd;
};

class VelocityConvergence : public ::testing::TestWithParam<GainGrid> {};

TEST_P(VelocityConvergence, ConvergesToSetpointOnFirstOrderPlant) {
  const GainGrid g = GetParam();
  PidConfig config = TestConfig(1000.0);
  config.kp = g.kp;
  config.ki = g.ki;
  config.kd = g.kd;
  PidController pid(config, PidForm::kVelocity);
  // Plant: 100 ms base latency, +40 ms per MB/s, smoothing 0.5 — the
  // setpoint is reachable at u = 22.5 MB/s.
  FirstOrderPlant plant(100.0, 40.0, 0.5);
  double pv = 100.0;
  for (int i = 0; i < 600; ++i) pv = plant.Step(pid.Update(pv, 1.0), 1.0);
  EXPECT_NEAR(pv, 1000.0, 100.0) << "kp=" << g.kp << " ki=" << g.ki
                                 << " kd=" << g.kd;
  EXPECT_NEAR(pid.output(), 22.5, 3.0);
}

INSTANTIATE_TEST_SUITE_P(
    GainSweep, VelocityConvergence,
    ::testing::Values(GainGrid{0.025, 0.005, 0.015},   // Paper gains.
                      GainGrid{0.0125, 0.0025, 0.0075},  // Half gains.
                      GainGrid{0.02, 0.006, 0.01},       // Mixed ratios.
                      GainGrid{0.025, 0.005, 0.0},       // No derivative.
                      GainGrid{0.0, 0.005, 0.0}));       // Integral only.

// ---------------------------------------------------------------- Monitor

TEST(LatencyMonitorTest, WindowAverage) {
  LatencyMonitor monitor(3.0);
  monitor.Record(0.5, 100);
  monitor.Record(1.0, 200);
  monitor.Record(2.0, 300);
  EXPECT_DOUBLE_EQ(monitor.WindowAverageMs(2.0), 200.0);
  // The window is (now - 3, now]: at t=4.0 the 0.5 and 1.0 samples are
  // out, leaving only the 300.
  EXPECT_DOUBLE_EQ(monitor.WindowAverageMs(4.0), 300.0);
  EXPECT_EQ(monitor.total_recorded(), 3u);
}

TEST(LatencyMonitorTest, EmptyWindowHoldsLastAverage) {
  LatencyMonitor monitor(3.0);
  monitor.Record(1.0, 500);
  EXPECT_DOUBLE_EQ(monitor.WindowAverageMs(1.5), 500.0);
  // Long silence, no probe: report the last known value, not zero.
  EXPECT_DOUBLE_EQ(monitor.WindowAverageMs(100.0), 500.0);
}

TEST(LatencyMonitorTest, ProbeReportsStalledServer) {
  LatencyMonitor monitor(3.0);
  monitor.Record(1.0, 200);
  monitor.SetOutstandingProbe([](SimTime now) {
    return (now - 1.0) * 1000.0;  // A txn has been stuck since t=1.
  });
  // Window empty at t=10; the probe says 9000 ms outstanding.
  EXPECT_DOUBLE_EQ(monitor.WindowAverageMs(10.0), 9000.0);
}

TEST(LatencyMonitorTest, MeanAndPercentileShareEvictionBoundary) {
  LatencyMonitor monitor(3.0);
  // One sample that will be *exactly* `window` old at t=4.0, and one
  // comfortably inside. The window is (now - 3, now]: the mean and the
  // count must both evict the boundary sample.
  monitor.Record(1.0, 1000.0);
  monitor.Record(3.5, 100.0);
  EXPECT_DOUBLE_EQ(monitor.WindowAverageMs(4.0), 100.0);
  // Alone, the boundary sample leaves the window empty by count too, so
  // the monitor holds its last known average. A count that kept the
  // sample the mean evicted would read the empty mean's 0 instead.
  LatencyMonitor alone(3.0);
  alone.Record(1.0, 1000.0);
  EXPECT_DOUBLE_EQ(alone.WindowAverageMs(4.0), 1000.0);
  // One tick earlier it is still inside.
  LatencyMonitor earlier(3.0);
  earlier.Record(1.0, 1000.0);
  earlier.Record(3.5, 100.0);
  EXPECT_DOUBLE_EQ(earlier.WindowAverageMs(3.9), 550.0);
}

TEST(LatencyMonitorTest, WithinGuardBand) {
  LatencyMonitor monitor(3.0);
  monitor.Record(1.0, 790.0);
  // Setpoint 1000, band 0.2: the guard trips at >= 800.
  EXPECT_FALSE(monitor.WithinGuardBand(1.0, 1000.0, 0.2));
  // Zero band only trips at the setpoint itself.
  EXPECT_FALSE(monitor.WithinGuardBand(1.0, 1000.0, 0.0));
  monitor.Record(1.5, 850.0);  // Mean now 820: inside the band.
  EXPECT_TRUE(monitor.WithinGuardBand(1.5, 1000.0, 0.2));
  monitor.Record(2.0, 5000.0);  // Mean 2213: past the setpoint.
  EXPECT_TRUE(monitor.WithinGuardBand(2.0, 1000.0, 0.2));
  EXPECT_TRUE(monitor.WithinGuardBand(2.0, 1000.0, 0.0));
  // A disabled setpoint never gates admission.
  EXPECT_FALSE(monitor.WithinGuardBand(2.0, 0.0, 0.2));
}

TEST(LatencyMonitorTest, ProbeNeverLowersSignal) {
  LatencyMonitor monitor(3.0);
  monitor.Record(1.0, 5000);
  monitor.SetOutstandingProbe([](SimTime) { return 10.0; });
  // Last average (5000) dominates a tiny outstanding age.
  EXPECT_DOUBLE_EQ(monitor.WindowAverageMs(100.0), 5000.0);
}

}  // namespace
}  // namespace slacker::control
