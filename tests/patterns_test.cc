// Tests for the time-varying arrival patterns and the driver that
// applies them to a live workload.

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/workload/patterns.h"

namespace slacker::workload {
namespace {

YcsbConfig BaseConfig() {
  YcsbConfig config;
  config.record_count = 1024;
  config.mean_interarrival = 0.2;
  return config;
}

TEST(DiurnalPatternTest, OscillatesAroundOne) {
  DiurnalPattern p(/*period=*/100.0, /*amplitude=*/0.5);
  EXPECT_NEAR(p.Rate(0), 1.0, 1e-9);
  EXPECT_NEAR(p.Rate(25), 1.5, 1e-9);   // Peak at quarter period.
  EXPECT_NEAR(p.Rate(75), 0.5, 1e-9);   // Trough at three quarters.
  EXPECT_NEAR(p.Rate(100), 1.0, 1e-9);  // Periodic.
}

TEST(DiurnalPatternTest, NeverNegative) {
  DiurnalPattern p(100.0, /*amplitude=*/1.5);  // Would dip below zero.
  for (double t = 0; t < 200; t += 5) EXPECT_GE(p.Rate(t), 0.0);
}

TEST(DiurnalJitterTest, DeterministicPerTenant) {
  DiurnalJitter jitter;
  jitter.period_fraction = 0.1;
  jitter.phase_fraction = 0.25;
  jitter.amplitude_fraction = 0.2;
  const DiurnalPattern a =
      DiurnalPattern::ForTenant(240.0, 0.5, 0.0, jitter, /*seed=*/1,
                                /*tenant_id=*/7);
  const DiurnalPattern b =
      DiurnalPattern::ForTenant(240.0, 0.5, 0.0, jitter, 1, 7);
  // Same (seed, tenant) -> bit-identical curve.
  EXPECT_EQ(a.period(), b.period());
  EXPECT_EQ(a.amplitude(), b.amplitude());
  EXPECT_EQ(a.phase(), b.phase());
  for (double t = 0.0; t < 480.0; t += 17.0) {
    EXPECT_EQ(a.Rate(t), b.Rate(t));
  }
}

TEST(DiurnalJitterTest, StaysInsideBounds) {
  DiurnalJitter jitter;
  jitter.period_fraction = 0.1;
  jitter.phase_fraction = 0.25;
  jitter.amplitude_fraction = 0.2;
  for (uint64_t tenant = 0; tenant < 64; ++tenant) {
    const DiurnalPattern p =
        DiurnalPattern::ForTenant(240.0, 0.5, 10.0, jitter, 99, tenant);
    EXPECT_GE(p.period(), 240.0 * 0.9 - 1e-9);
    EXPECT_LE(p.period(), 240.0 * 1.1 + 1e-9);
    EXPECT_GE(p.amplitude(), 0.5 * 0.8 - 1e-9);
    EXPECT_LE(p.amplitude(), 0.5 * 1.2 + 1e-9);
    EXPECT_GE(p.phase(), 10.0 - 0.25 * 240.0 - 1e-9);
    EXPECT_LE(p.phase(), 10.0 + 0.25 * 240.0 + 1e-9);
  }
}

TEST(DiurnalJitterTest, DistinctTenantsGetDistinctCurves) {
  DiurnalJitter jitter;
  jitter.phase_fraction = 0.25;
  const DiurnalPattern a =
      DiurnalPattern::ForTenant(240.0, 0.5, 0.0, jitter, 1, 1);
  const DiurnalPattern b =
      DiurnalPattern::ForTenant(240.0, 0.5, 0.0, jitter, 1, 2);
  EXPECT_NE(a.phase(), b.phase());
}

TEST(DiurnalJitterTest, ZeroJitterIsTheBaseCurve) {
  const DiurnalPattern p =
      DiurnalPattern::ForTenant(240.0, 0.5, 5.0, DiurnalJitter(), 1, 3);
  EXPECT_DOUBLE_EQ(p.period(), 240.0);
  EXPECT_DOUBLE_EQ(p.amplitude(), 0.5);
  EXPECT_DOUBLE_EQ(p.phase(), 5.0);
}

TEST(FlashCrowdPatternTest, RampHoldDecay) {
  FlashCrowdPattern p(/*start=*/100, /*ramp=*/10, /*hold=*/30, /*peak=*/4.0);
  EXPECT_DOUBLE_EQ(p.Rate(99), 1.0);
  EXPECT_NEAR(p.Rate(105), 2.5, 1e-9);   // Mid-ramp.
  EXPECT_DOUBLE_EQ(p.Rate(110), 4.0);    // Peak reached.
  EXPECT_DOUBLE_EQ(p.Rate(139), 4.0);    // Holding.
  EXPECT_NEAR(p.Rate(145), 2.5, 1e-9);   // Mid-decay.
  EXPECT_DOUBLE_EQ(p.Rate(151), 1.0);    // Over.
}

TEST(PatternDriverTest, AppliesFactorToWorkload) {
  sim::Simulator sim;
  YcsbWorkload workload(BaseConfig(), 1, 42);
  // 1x until t=25, 2x from t=30 on.
  FlashCrowdPattern pattern(/*start=*/25.0, /*ramp=*/5.0, /*hold=*/1000.0,
                            /*peak=*/2.0);
  PatternDriver driver(&sim, &workload, &pattern, /*update_period=*/5.0);
  driver.Start();
  sim.RunUntil(20.0);
  EXPECT_NEAR(workload.mean_interarrival(), 0.2, 1e-9);  // Still 1x.
  sim.RunUntil(40.0);
  // 2x rate = half the inter-arrival.
  EXPECT_NEAR(workload.mean_interarrival(), 0.1, 1e-9);
  EXPECT_DOUBLE_EQ(driver.current_factor(), 2.0);
  driver.Stop();
}

TEST(PatternDriverTest, ComposesRelativeChangesWithoutDrift) {
  sim::Simulator sim;
  YcsbWorkload workload(BaseConfig(), 1, 42);
  DiurnalPattern pattern(100.0, 0.5);
  PatternDriver driver(&sim, &workload, &pattern, 1.0);
  driver.Start();
  sim.RunUntil(400.0);  // Four full periods, 400 updates.
  // Back near phase 0: factor ~1, inter-arrival back at the base.
  EXPECT_NEAR(workload.mean_interarrival(), 0.2, 0.02);
  driver.Stop();
}

TEST(PatternDriverTest, StopFreezesRate) {
  sim::Simulator sim;
  YcsbWorkload workload(BaseConfig(), 1, 42);
  FlashCrowdPattern pattern(/*start=*/10.0, /*ramp=*/1.0, /*hold=*/1000.0,
                            /*peak=*/3.0);
  PatternDriver driver(&sim, &workload, &pattern, 1.0);
  driver.Start();
  sim.RunUntil(15.0);
  driver.Stop();
  const double frozen = workload.mean_interarrival();
  sim.RunUntil(100.0);
  EXPECT_DOUBLE_EQ(workload.mean_interarrival(), frozen);
}

}  // namespace
}  // namespace slacker::workload
