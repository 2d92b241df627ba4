// Unit tests of the benchmark's own helpers and of its determinism
// contract. Build with -DPERFBENCH_TESTS=ON (see perfbench/README.md).

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "perfbench/bench_stats.h"
#include "perfbench/scenario.h"
#include "perfbench/wall_trace.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> values(100);
  std::iota(values.begin(), values.end(), 1.0);
  std::shuffle(values.begin(), values.end(), std::mt19937(7));
  EXPECT_EQ(Percentile(values, 50.0), 50.0);
  EXPECT_EQ(Percentile(values, 95.0), 95.0);
  EXPECT_EQ(Percentile(values, 100.0), 100.0);
  EXPECT_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(PercentileTest, HighestSupportedLeavesTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(199), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(200, /*min_beyond=*/20), 90.0);
  // The definition: at least ten samples lie above the reported value.
  for (size_t n : {20u, 57u, 200u, 433u, 1000u, 5000u}) {
    std::vector<double> values(n);
    std::iota(values.begin(), values.end(), 1.0);
    const double p = HighestSupportedPercentile(n);
    const double cut = Percentile(values, p);
    EXPECT_GE(std::count_if(values.begin(), values.end(),
                            [cut](double v) { return v > cut; }),
              10)
        << n;
  }
}

TEST(OutputDigestTest, OrderAndBitSensitive) {
  OutputDigest a, b, c;
  a.Add(1);
  a.AddDouble(0.5);
  b.AddDouble(0.5);
  b.Add(1);
  c.Add(1);
  c.AddDouble(std::nextafter(0.5, 1.0));
  EXPECT_NE(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
}

TEST(WallTraceTest, SlicesAddUpAcrossPhases) {
  WallTrace trace;
  std::mt19937 rng(3);
  WallClock::time_point t = WallClock::now();
  const WallClock::time_point start = t;
  for (int i = 0; i < 500; ++i) {
    const WallClock::time_point next =
        t + std::chrono::microseconds(1 + rng() % 5000);
    std::vector<SlicePhase> phases;
    const int jobs = static_cast<int>(rng() % 4);
    for (int j = 0; j < jobs; ++j) {
      phases.push_back(static_cast<SlicePhase>(1 + rng() % 4));
    }
    trace.AddSlice(t, next, phases);
    t = next;
  }
  double phases = 0.0;
  for (size_t p = 0; p < kSlicePhaseCount; ++p) {
    phases += trace.PhaseSeconds(static_cast<SlicePhase>(p));
  }
  EXPECT_EQ(trace.slice_count(), 500u);
  EXPECT_NEAR(phases, trace.SliceSeconds(), 1e-9);
  EXPECT_NEAR(trace.SliceSeconds(), SecondsBetween(start, t), 1e-9);
}

TEST(WallTraceTest, IdleOnlyWithoutJobs) {
  WallTrace trace;
  const WallClock::time_point t0 = WallClock::now();
  const WallClock::time_point t1 = t0 + std::chrono::milliseconds(2);
  const WallClock::time_point t2 = t1 + std::chrono::milliseconds(4);
  trace.AddSlice(t0, t1, {});
  trace.AddSlice(t1, t2, {SlicePhase::kSnapshot, SlicePhase::kHandover});
  EXPECT_NEAR(trace.PhaseSeconds(SlicePhase::kIdle), 0.002, 1e-12);
  EXPECT_NEAR(trace.PhaseSeconds(SlicePhase::kSnapshot), 0.002, 1e-12);
  EXPECT_NEAR(trace.PhaseSeconds(SlicePhase::kHandover), 0.002, 1e-12);
  EXPECT_EQ(trace.PhaseSeconds(SlicePhase::kDelta), 0.0);
}

RunResult QuickRun(Workload workload, uint64_t seed, bool traced) {
  RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.traced = traced;
  options.quick = true;
  return RunWorkload(options);
}

class WorkloadTest : public ::testing::TestWithParam<Workload> {};

// The traced run's slices tile its timed phase, so the per-phase wall
// seconds add up to the timed wall time.
TEST_P(WorkloadTest, PhaseAttributionCoversTimedWall) {
  const RunResult run = QuickRun(GetParam(), 1, /*traced=*/true);
  ASSERT_TRUE(run.correct) << (run.failures.empty() ? "" : run.failures[0]);
  double phases = 0.0;
  for (const char* phase :
       {"idle", "snapshot", "prepare", "delta", "handover"}) {
    const double seconds = run.Metric(std::string("slacker.wall_s.") + phase);
    ASSERT_FALSE(std::isnan(seconds)) << phase;
    phases += seconds;
  }
  EXPECT_GT(run.timed_seconds, 0.0);
  EXPECT_NEAR(phases, run.timed_seconds, 1e-9 * run.timed_seconds + 1e-12);
}

// The simulated outputs are a function of the seed alone: repeated and
// traced runs agree, another seed differs and still passes every check.
TEST_P(WorkloadTest, DigestDependsOnlyOnSeed) {
  const RunResult first = QuickRun(GetParam(), 5, /*traced=*/false);
  const RunResult again = QuickRun(GetParam(), 5, /*traced=*/false);
  const RunResult traced = QuickRun(GetParam(), 5, /*traced=*/true);
  const RunResult other = QuickRun(GetParam(), 6, /*traced=*/false);
  ASSERT_TRUE(first.correct);
  ASSERT_TRUE(other.correct) << (other.failures.empty() ? "" : other.failures[0]);
  EXPECT_EQ(first.digest, again.digest);
  EXPECT_EQ(first.digest, traced.digest);
  EXPECT_NE(first.digest, other.digest);
  for (const char* name : {"txn_p50_ms", "migration_s"}) {
    EXPECT_EQ(first.Metric(name), traced.Metric(name)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values(Workload::kFleetWrites,
                                           Workload::kFleetReads,
                                           Workload::kBulkCodec),
                         [](const auto& info) {
                           switch (info.param) {
                             case Workload::kFleetWrites:
                               return std::string("fleet_writes");
                             case Workload::kFleetReads:
                               return std::string("fleet_reads");
                             case Workload::kBulkCodec:
                               return std::string("bulk_codec");
                           }
                           return std::string("unknown");
                         });

}  // namespace
}  // namespace perfbench
