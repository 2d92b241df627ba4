// Tests for the forecast subsystem (DESIGN.md §13): the sample ring,
// the autocorrelation cycle detector, the Holt-Winters seasonal
// forecaster (including golden bit-determinism), the migration cost
// model, the trough scheduler's deadline/urgency properties, and the
// FleetLoadSampler that feeds them from a Cluster.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/forecast/cost_model.h"
#include "src/forecast/cycle_detector.h"
#include "src/forecast/holt_winters.h"
#include "src/forecast/load_predictor.h"
#include "src/forecast/ring_buffer.h"
#include "src/forecast/trough_scheduler.h"
#include "src/obs/trace.h"
#include "src/slacker/cluster.h"
#include "src/slacker/fleet_load_sampler.h"

namespace slacker::forecast {
namespace {

// ---------------------------------------------------------------- ring

TEST(SampleRingTest, FillAndWrap) {
  SampleRing ring(4);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) ring.Push(static_cast<double>(i));
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.total_pushed(), 4u);
  EXPECT_EQ(ring.first_index(), 0u);
  EXPECT_DOUBLE_EQ(ring.at(0), 0.0);
  EXPECT_DOUBLE_EQ(ring.back(), 3.0);

  ring.Push(4.0);  // Evicts the oldest.
  ring.Push(5.0);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_pushed(), 6u);
  EXPECT_EQ(ring.first_index(), 2u);
  EXPECT_DOUBLE_EQ(ring.at(0), 2.0);
  EXPECT_DOUBLE_EQ(ring.back(), 5.0);
  EXPECT_DOUBLE_EQ(ring.Mean(), (2.0 + 3.0 + 4.0 + 5.0) / 4.0);
}

TEST(SampleRingTest, MeanEmptyIsZero) {
  SampleRing ring(8);
  EXPECT_DOUBLE_EQ(ring.Mean(), 0.0);
}

// ------------------------------------------------------ cycle detector

TEST(CycleDetectorOptionsTest, Validation) {
  EXPECT_TRUE(CycleDetector::Options().Validate().ok());
  CycleDetector::Options bad;
  bad.min_period_buckets = 1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = CycleDetector::Options();
  bad.max_period_buckets = 4;
  bad.min_period_buckets = 8;
  EXPECT_FALSE(bad.Validate().ok());
}

// A standard normal draw (Box-Muller) from `rng`.
double Gaussian(Rng* rng) {
  double u1 = rng->NextDouble();
  const double u2 = rng->NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

// Fills `ring` with a sinusoid of the given period (buckets) plus
// Gaussian noise drawn from a seeded Rng. Trough (minimum) sits at
// phase 3/4 * period because the base is a sine starting at phase 0.
void FillDiurnal(SampleRing* ring, int samples, int period_buckets,
                 double mean, double amplitude, double noise_sigma,
                 uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < samples; ++i) {
    const double phase =
        2.0 * M_PI * static_cast<double>(i % period_buckets) /
        static_cast<double>(period_buckets);
    const double value =
        mean + amplitude * std::sin(phase) + noise_sigma * Gaussian(&rng);
    ring->Push(value);
  }
}

TEST(CycleDetectorTest, RecoversKnownPeriodAndPhase) {
  CycleDetector::Options options;
  options.min_period_buckets = 8;
  options.max_period_buckets = 64;
  CycleDetector detector(options);

  const int kPeriod = 24;
  SampleRing ring(256);
  FillDiurnal(&ring, 256, kPeriod, /*mean=*/0.5, /*amplitude=*/0.3,
              /*noise_sigma=*/0.03, /*seed=*/42);

  const CycleEstimate estimate = detector.Detect(ring);
  ASSERT_TRUE(estimate.periodic);
  EXPECT_EQ(estimate.period_buckets, kPeriod);
  EXPECT_GT(estimate.confidence, 0.8);
  // sin's minimum is at 3/4 of the period; allow one bucket of slop for
  // the noise.
  EXPECT_NEAR(estimate.trough_phase, 3 * kPeriod / 4, 1);
}

TEST(CycleDetectorTest, RejectsHarmonics) {
  // A detector whose lag range covers 2x the true period must still
  // report the fundamental: the double-period autocorrelation can only
  // tie the fundamental, and ties break toward the smallest lag.
  CycleDetector::Options options;
  options.min_period_buckets = 8;
  options.max_period_buckets = 96;
  CycleDetector detector(options);

  const int kPeriod = 20;
  SampleRing ring(384);
  FillDiurnal(&ring, 384, kPeriod, 0.5, 0.3, 0.02, 7);

  const CycleEstimate estimate = detector.Detect(ring);
  ASSERT_TRUE(estimate.periodic);
  EXPECT_EQ(estimate.period_buckets, kPeriod);
}

TEST(CycleDetectorTest, FlatSeriesIsNotPeriodic) {
  CycleDetector detector;
  SampleRing ring(600);
  for (int i = 0; i < 600; ++i) ring.Push(0.4);
  EXPECT_FALSE(detector.Detect(ring).periodic);
}

TEST(CycleDetectorTest, NoiseIsNotPeriodic) {
  CycleDetector::Options options;
  options.min_period_buckets = 8;
  options.max_period_buckets = 64;
  CycleDetector detector(options);
  SampleRing ring(256);
  Rng rng(99);
  for (int i = 0; i < 256; ++i) ring.Push(0.5 + 0.1 * Gaussian(&rng));
  EXPECT_FALSE(detector.Detect(ring).periodic);
}

TEST(CycleDetectorTest, InsufficientHistoryIsNotPeriodic) {
  CycleDetector::Options options;
  options.min_period_buckets = 8;
  options.max_period_buckets = 64;
  CycleDetector detector(options);
  SampleRing ring(256);
  FillDiurnal(&ring, 100, 24, 0.5, 0.3, 0.0, 1);  // < 2x max period.
  EXPECT_FALSE(detector.Detect(ring).periodic);
}

TEST(CycleDetectorTest, Deterministic) {
  CycleDetector::Options options;
  options.min_period_buckets = 8;
  options.max_period_buckets = 64;
  CycleDetector detector(options);
  SampleRing a(256);
  SampleRing b(256);
  FillDiurnal(&a, 256, 24, 0.5, 0.3, 0.05, 1234);
  FillDiurnal(&b, 256, 24, 0.5, 0.3, 0.05, 1234);
  const CycleEstimate ea = detector.Detect(a);
  const CycleEstimate eb = detector.Detect(b);
  EXPECT_EQ(ea.periodic, eb.periodic);
  EXPECT_EQ(ea.period_buckets, eb.period_buckets);
  EXPECT_EQ(ea.trough_phase, eb.trough_phase);
  EXPECT_EQ(ea.confidence, eb.confidence);
}

// -------------------------------------------------------- holt-winters

TEST(HoltWintersTest, SeedNeedsOneFullSeason) {
  HoltWintersForecaster model;
  SampleRing ring(64);
  for (int i = 0; i < 10; ++i) ring.Push(0.5);
  EXPECT_FALSE(model.Seed(24, ring).ok());
  EXPECT_FALSE(model.seeded());
  for (int i = 0; i < 14; ++i) ring.Push(0.5);
  EXPECT_TRUE(model.Seed(24, ring).ok());
  EXPECT_TRUE(model.seeded());
}

TEST(HoltWintersTest, TracksCleanSinusoid) {
  const int kPeriod = 24;
  SampleRing ring(240);
  FillDiurnal(&ring, 240, kPeriod, 0.5, 0.3, /*noise_sigma=*/0.0, 0);

  HoltWintersForecaster model;
  ASSERT_TRUE(model.Seed(kPeriod, ring).ok());

  // Forecast one full season ahead and compare against ground truth.
  for (int h = 1; h <= kPeriod; ++h) {
    const uint64_t bucket = ring.total_pushed() + static_cast<uint64_t>(h) - 1;
    const double phase = 2.0 * M_PI *
                         static_cast<double>(bucket % kPeriod) /
                         static_cast<double>(kPeriod);
    const double truth = 0.5 + 0.3 * std::sin(phase);
    EXPECT_NEAR(model.Forecast(h), truth, 0.05)
        << "h=" << h << " bucket=" << bucket;
  }
  // A clean periodic series leaves a small one-step error.
  EXPECT_LT(model.mean_abs_error(), 0.02);
}

TEST(HoltWintersTest, BandWidensWithHorizon) {
  SampleRing ring(120);
  FillDiurnal(&ring, 120, 24, 0.5, 0.3, 0.05, 11);
  HoltWintersForecaster model;
  ASSERT_TRUE(model.Seed(24, ring).ok());
  const HoltWintersForecaster::Band near = model.ForecastBand(1, 2.0);
  const HoltWintersForecaster::Band far = model.ForecastBand(16, 2.0);
  EXPECT_GE(near.hi, near.mid);
  EXPECT_GE(near.mid, near.lo);
  EXPECT_GT(far.hi - far.mid, near.hi - near.mid);
  EXPECT_GE(near.lo, 0.0);
}

// Formats doubles at full precision: any cross-run or cross-platform
// drift in the arithmetic shows up as a string mismatch.
std::string FingerprintForecast(uint64_t seed) {
  SampleRing ring(192);
  FillDiurnal(&ring, 192, 24, 0.5, 0.3, 0.05, seed);
  HoltWintersForecaster model;
  EXPECT_TRUE(model.Seed(24, ring).ok());
  std::string out;
  char buf[64];
  for (int h : {1, 2, 6, 12, 24}) {
    std::snprintf(buf, sizeof(buf), "%.17g;", model.Forecast(h));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "mae=%.17g", model.mean_abs_error());
  out += buf;
  return out;
}

TEST(HoltWintersTest, GoldenDeterminism) {
  // Bit-identical across runs, builds, and the CI matrix (plain and
  // asan-ubsan): every update statement is a fixed rounding site. If
  // this golden moves, the forecaster's arithmetic changed — bump it
  // only with a deliberate model change.
  const char* kGolden =
      "0.47584559003829419;0.60520481878449583;0.81015147665083964;"
      "0.55602363354310869;0.39409742586849644;"
      "mae=0.048163442461683248";
  EXPECT_EQ(FingerprintForecast(2024), kGolden);
  // And trivially: the same inputs fingerprint identically twice.
  EXPECT_EQ(FingerprintForecast(7), FingerprintForecast(7));
}

// ----------------------------------------------------------- predictor

/// Deterministic synthetic predictor: load swings sinusoidally around
/// `mean` with the given period; trough at 3/4 period.
class SinePredictor : public LoadPredictor {
 public:
  SinePredictor(double mean, double amplitude, double period)
      : mean_(mean), amplitude_(amplitude), period_(period) {}

  bool Ready(uint64_t) const override { return true; }
  double PredictLoad(uint64_t, SimTime t) const override {
    const double load =
        mean_ + amplitude_ * std::sin(2.0 * M_PI * t / period_);
    return load < 0.0 ? 0.0 : load;
  }
  double PredictLoadUpper(uint64_t server_id, SimTime t) const override {
    return PredictLoad(server_id, t);
  }
  double CurrentLoad(uint64_t server_id) const override {
    return PredictLoad(server_id, 0.0);
  }

 private:
  double mean_, amplitude_, period_;
};

/// Predictor with no forecast for anyone.
class BlindPredictor : public LoadPredictor {
 public:
  bool Ready(uint64_t) const override { return false; }
  double PredictLoad(uint64_t, SimTime) const override { return 0.0; }
  double PredictLoadUpper(uint64_t, SimTime) const override { return 0.0; }
  double CurrentLoad(uint64_t) const override { return 0.0; }
};

// ----------------------------------------------------------- cost model

TEST(CostModelOptionsTest, Validation) {
  EXPECT_TRUE(CostModelOptions().Validate().ok());
  CostModelOptions bad;
  bad.violation_knee = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = CostModelOptions();
  bad.throttle_ceiling_mbps = 1.0;  // Below the floor.
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(CostModelTest, TroughIsCheaperAndFasterThanPeak) {
  // Period 240 s: peak at t=60, trough at t=180.
  SinePredictor predictor(0.45, 0.35, 240.0);
  MigrationCostModel model(&predictor);

  const uint64_t kBytes = 64ull * 1024 * 1024;
  const MigrationCostEstimate peak = model.Price(0, 1, kBytes, 60.0);
  const MigrationCostEstimate trough = model.Price(0, 1, kBytes, 180.0);

  EXPECT_GT(peak.violation_seconds, trough.violation_seconds);
  EXPECT_GT(peak.duration_seconds, trough.duration_seconds);
  EXPECT_LT(peak.rate_mbps, trough.rate_mbps);
  // At the trough the predicted load is ~0.10, far under the 0.55 knee:
  // no predicted violations at all.
  EXPECT_DOUBLE_EQ(trough.violation_seconds, 0.0);
}

TEST(CostModelTest, ExtraServersAddCost) {
  SinePredictor predictor(0.45, 0.35, 240.0);
  MigrationCostModel model(&predictor);
  const uint64_t kBytes = 64ull * 1024 * 1024;
  const MigrationCostEstimate pair =
      model.PriceServers({0, 1}, kBytes, 60.0);
  const MigrationCostEstimate quad =
      model.PriceServers({0, 1, 2, 3}, kBytes, 60.0);
  EXPECT_GT(quad.violation_seconds, pair.violation_seconds);
}

// ------------------------------------------------------ trough scheduler

TEST(TroughSchedulerOptionsTest, Validation) {
  EXPECT_TRUE(TroughSchedulerOptions().Validate().ok());
  TroughSchedulerOptions bad;
  bad.horizon_seconds = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = TroughSchedulerOptions();
  bad.candidate_stride = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
}

WorkRequest MakeWork(uint64_t key, bool urgent = false) {
  WorkRequest work;
  work.key = key;
  work.tenant_id = key;
  work.source_server = 0;
  work.target_server = 1;
  work.data_bytes = 64ull * 1024 * 1024;
  work.kind = urgent ? "relief" : "consolidation";
  work.urgent = urgent;
  return work;
}

TEST(TroughSchedulerTest, UrgentIsNeverDeferred) {
  SinePredictor predictor(0.45, 0.35, 240.0);
  MigrationCostModel model(&predictor);
  TroughScheduler scheduler(&model, TroughSchedulerOptions());
  // Probe across the whole cycle, peak included.
  for (double t = 0.0; t <= 480.0; t += 7.0) {
    const ScheduleDecision d = scheduler.Decide(MakeWork(1, true), t);
    EXPECT_TRUE(d.run_now) << "urgent deferred at t=" << t;
    EXPECT_EQ(d.reason, "urgent");
  }
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(TroughSchedulerTest, NoForecastRunsNow) {
  BlindPredictor predictor;
  MigrationCostModel model(&predictor);
  TroughScheduler scheduler(&model, TroughSchedulerOptions());
  const ScheduleDecision d = scheduler.Decide(MakeWork(1), 10.0);
  EXPECT_TRUE(d.run_now);
  EXPECT_EQ(d.reason, "no-forecast");
}

TEST(TroughSchedulerTest, DefersPeakWorkIntoTrough) {
  SinePredictor predictor(0.45, 0.35, 240.0);
  MigrationCostModel model(&predictor);
  TroughSchedulerOptions options;
  options.horizon_seconds = 300.0;
  options.candidate_stride = 10.0;
  options.fallback_deadline = 600.0;
  TroughScheduler scheduler(&model, options);

  // Submitted at the load peak (t=60): the scheduler should find a
  // cheaper start later in the cycle and hold the work.
  const ScheduleDecision d = scheduler.Decide(MakeWork(5), 60.0);
  ASSERT_FALSE(d.run_now);
  EXPECT_EQ(d.reason, "trough-wait");
  EXPECT_GT(d.scheduled_start, 60.0);
  EXPECT_LE(d.scheduled_start, d.deadline);
  EXPECT_LT(d.cost_scheduled, d.cost_now);
  EXPECT_EQ(scheduler.pending(), 1u);

  // Re-asking before the scheduled start keeps holding...
  const ScheduleDecision held =
      scheduler.Decide(MakeWork(5), d.scheduled_start - 1.0);
  EXPECT_FALSE(held.run_now);
  EXPECT_EQ(held.reason, "trough-wait");
  // ...and the pinned schedule is sticky (same start).
  EXPECT_EQ(held.scheduled_start, d.scheduled_start);

  // At the scheduled start the work is released.
  const ScheduleDecision released =
      scheduler.Decide(MakeWork(5), d.scheduled_start);
  EXPECT_TRUE(released.run_now);
  EXPECT_EQ(released.reason, "trough-start");

  scheduler.Complete(5);
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(TroughSchedulerTest, DeadlineIsNeverViolated) {
  // Property: for any submit time and any poll cadence, a deferred work
  // item is released no later than submit + fallback_deadline.
  SinePredictor predictor(0.45, 0.35, 240.0);
  MigrationCostModel model(&predictor);
  TroughSchedulerOptions options;
  options.horizon_seconds = 900.0;
  options.fallback_deadline = 300.0;
  TroughScheduler scheduler(&model, options);

  Rng rng(77);
  for (uint64_t key = 1; key <= 40; ++key) {
    const SimTime submit = rng.Uniform(0.0, 960.0);
    ScheduleDecision d = scheduler.Decide(MakeWork(key), submit);
    if (d.run_now) continue;
    EXPECT_LE(d.scheduled_start, submit + options.fallback_deadline + 1e-6);
    // Poll at a random cadence until release; it must come by the
    // deadline.
    SimTime now = submit;
    bool released = false;
    while (now <= submit + options.fallback_deadline + 1e-6) {
      now += rng.Uniform(1.0, 30.0);
      d = scheduler.Decide(MakeWork(key), now);
      if (d.run_now) {
        released = true;
        break;
      }
    }
    EXPECT_TRUE(released) << "work " << key << " held past its deadline";
    EXPECT_LE(now, submit + options.fallback_deadline + 30.0 + 1e-6);
    scheduler.Complete(key);
  }
}

TEST(TroughSchedulerTest, DeadlineReleaseReason) {
  SinePredictor predictor(0.45, 0.35, 240.0);
  MigrationCostModel model(&predictor);
  TroughSchedulerOptions options;
  options.fallback_deadline = 100.0;
  options.horizon_seconds = 300.0;
  TroughScheduler scheduler(&model, options);

  const ScheduleDecision d = scheduler.Decide(MakeWork(9), 60.0);
  if (!d.run_now) {
    // Skip straight past the deadline without ever hitting the trough.
    const ScheduleDecision forced = scheduler.Decide(MakeWork(9), 161.0);
    EXPECT_TRUE(forced.run_now);
    EXPECT_EQ(forced.reason, "deadline");
    EXPECT_EQ(scheduler.stats().released_deadline, 1u);
  }
}

TEST(TroughSchedulerTest, Deterministic) {
  SinePredictor predictor(0.45, 0.35, 240.0);
  MigrationCostModel model_a(&predictor);
  MigrationCostModel model_b(&predictor);
  TroughScheduler a(&model_a, TroughSchedulerOptions());
  TroughScheduler b(&model_b, TroughSchedulerOptions());
  for (double t = 0.0; t < 600.0; t += 13.0) {
    const ScheduleDecision da = a.Decide(MakeWork(3), t);
    const ScheduleDecision db = b.Decide(MakeWork(3), t);
    EXPECT_EQ(da.run_now, db.run_now);
    EXPECT_EQ(da.reason, db.reason);
    EXPECT_EQ(da.scheduled_start, db.scheduled_start);
    EXPECT_EQ(da.cost_scheduled, db.cost_scheduled);
  }
}

TEST(TroughSchedulerTest, PruneDropsStaleEntries) {
  SinePredictor predictor(0.45, 0.35, 240.0);
  MigrationCostModel model(&predictor);
  TroughSchedulerOptions options;
  options.fallback_deadline = 100.0;
  TroughScheduler scheduler(&model, options);
  const ScheduleDecision d = scheduler.Decide(MakeWork(4), 60.0);
  if (!d.run_now) {
    EXPECT_EQ(scheduler.pending(), 1u);
    scheduler.Prune(60.0 + 100.0 + 301.0);
    EXPECT_EQ(scheduler.pending(), 0u);
  }
}

}  // namespace
}  // namespace slacker::forecast

namespace slacker {
namespace {

// ------------------------------------------------------------- sampler

/// Two servers, tenant 9 homed on server 0 and tenant 4 on server 1,
/// so neither server nor tenant order follows insertion order.
struct SamplerRig {
  sim::Simulator sim;
  obs::Tracer tracer;  // Outlives the cluster it is installed in.
  Cluster cluster;

  SamplerRig()
      : tracer([this] { return sim.Now(); }), cluster(&sim, Options()) {
    cluster.InstallTracer(&tracer);
    for (const auto& [server, tenant] : {std::pair<uint64_t, uint64_t>{0, 9},
                                         std::pair<uint64_t, uint64_t>{1, 4}}) {
      const auto added = cluster.AddTenant(server, Config(tenant));
      EXPECT_TRUE(added.ok()) << added.status().ToString();
    }
  }

  static ClusterOptions Options() {
    ClusterOptions options;
    options.num_servers = 2;
    return options;
  }

  static engine::TenantConfig Config(uint64_t tenant_id) {
    engine::TenantConfig config;
    config.tenant_id = tenant_id;
    config.layout.record_count = 1024;
    config.buffer_pool_bytes = 1 * kMiB;
    return config;
  }

  /// Executes `n` reads on the tenant's instance on `server` and runs
  /// the simulator until they complete.
  void Execute(uint64_t server, uint64_t tenant_id, int n) {
    engine::TenantDb* db = cluster.TenantOn(server, tenant_id);
    ASSERT_NE(db, nullptr);
    for (int i = 0; i < n; ++i) {
      db->ExecuteOp(
          engine::Operation{engine::OpType::kRead, static_cast<uint64_t>(i)},
          nullptr);
    }
    sim.RunUntil(sim.Now() + 10.0);
  }
};

TEST(FleetLoadSamplerTest, RingsHoldOpsDeltaPerBucket) {
  SamplerRig rig;
  rig.Execute(0, 9, 10);
  rig.Execute(1, 4, 20);
  // Buckets far longer than each burst of ops: running the simulator to
  // the next bucket boundary closes the bucket that holds the burst.
  ForecastOptions options;
  options.bucket_seconds = 1000.0;
  options.seconds_per_op = 0.01;
  options.redetect_buckets = 1;
  FleetLoadSampler sampler(&rig.cluster, options);
  ASSERT_TRUE(sampler.Start().ok());  // Baselines: 10 and 20 ops.
  const SimTime epoch = rig.sim.Now();
  int buckets = 0;
  const auto close_bucket = [&] {
    rig.sim.RunUntil(epoch + options.bucket_seconds * ++buckets + 1.0);
  };

  rig.Execute(0, 9, 30);
  rig.Execute(1, 4, 50);
  close_bucket();
  ASSERT_NE(sampler.tenant_ring(9), nullptr);
  ASSERT_NE(sampler.tenant_ring(4), nullptr);
  EXPECT_DOUBLE_EQ(sampler.tenant_ring(9)->back(), 30.0 / 1000.0);
  EXPECT_DOUBLE_EQ(sampler.tenant_ring(4)->back(), 50.0 / 1000.0);
  EXPECT_DOUBLE_EQ(sampler.server_ring(0).back(), 30.0 / 1000.0 * 0.01);
  EXPECT_DOUBLE_EQ(sampler.server_ring(1).back(), 50.0 / 1000.0 * 0.01);

  // Tenant 4 loses its instance on server 1 (the directory still homes
  // it there): it records zero and keeps its 70-op baseline.
  ASSERT_TRUE(rig.cluster.DeleteTenantOn(1, 4).ok());
  rig.Execute(0, 9, 5);
  close_bucket();
  EXPECT_DOUBLE_EQ(sampler.tenant_ring(9)->back(), 5.0 / 1000.0);
  EXPECT_DOUBLE_EQ(sampler.tenant_ring(4)->back(), 0.0);
  EXPECT_DOUBLE_EQ(sampler.server_ring(1).back(), 0.0);

  // A fresh instance counts from 0; 100 ops past the kept baseline of
  // 70 read as 30 (a dropped baseline would read 100).
  const auto recreated = rig.cluster.CreateTenantOn(
      1, SamplerRig::Config(4), /*load=*/true, /*frozen=*/false);
  ASSERT_TRUE(recreated.ok()) << recreated.status().ToString();
  rig.Execute(1, 4, 100);
  close_bucket();
  EXPECT_DOUBLE_EQ(sampler.tenant_ring(4)->back(), 30.0 / 1000.0);
  EXPECT_DOUBLE_EQ(sampler.tenant_ring(9)->back(), 0.0);
  EXPECT_EQ(sampler.tenant_ring(4)->size(), 3u);
  EXPECT_EQ(sampler.buckets_sampled(), 3u);
  sampler.Stop();

  // Each bucket walks the servers in id order.
  std::vector<double> servers;
  for (const obs::Event& event : rig.tracer.events()) {
    if (event.name != "forecast_update") continue;
    for (const auto& [key, value] : event.args) {
      if (key == "server") servers.push_back(value);
    }
  }
  EXPECT_EQ(servers, (std::vector<double>{0, 1, 0, 1, 0, 1}));
}

}  // namespace
}  // namespace slacker
