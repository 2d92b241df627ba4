// Tests for whole-run percentile-SLA evaluation.

#include <gtest/gtest.h>

#include "src/sla/sla.h"

namespace slacker::sla {
namespace {

TEST(SlaSpecTest, ToStringReadable) {
  SlaSpec spec{99.0, 500.0};
  EXPECT_EQ(spec.ToString(), "p99.0 <= 500 ms");
}

TEST(SatisfiesTest, PassAndFail) {
  PercentileTracker latencies;
  for (int i = 0; i < 99; ++i) latencies.Add(100.0);
  latencies.Add(10000.0);  // One outlier = the p100.
  // p99 is 100 ms -> satisfied at 500 ms.
  EXPECT_TRUE(Satisfies(SlaSpec{99.0, 500.0}, latencies));
  // p100 catches the outlier.
  EXPECT_FALSE(Satisfies(SlaSpec{100.0, 500.0}, latencies));
  // Tight p50 fails too.
  EXPECT_FALSE(Satisfies(SlaSpec{50.0, 50.0}, latencies));
}

TEST(SatisfiesTest, EmptySampleSatisfiesVacuously) {
  PercentileTracker empty;
  EXPECT_TRUE(Satisfies(SlaSpec{99.0, 1.0}, empty));
}

}  // namespace
}  // namespace slacker::sla
