#ifndef SLACKER_SLACKER_FLEET_LOAD_SAMPLER_H_
#define SLACKER_SLACKER_FLEET_LOAD_SAMPLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/forecast/cycle_detector.h"
#include "src/forecast/holt_winters.h"
#include "src/forecast/load_predictor.h"
#include "src/forecast/ring_buffer.h"
#include "src/sim/simulator.h"

namespace slacker {

class Cluster;

struct ForecastOptions {
  /// Sampling bucket width (simulated seconds). Each bucket records the
  /// mean throughput over the bucket, so this is also the forecast
  /// granularity.
  SimTime bucket_seconds = 5.0;
  /// Ring capacity per server/tenant, in buckets.
  size_t history_buckets = 512;
  /// Disk-busy seconds one executed operation costs — converts ops/s
  /// into the utilization-like load signal the predictions are in. The
  /// default matches the calibrated paper disk at the fleet benches'
  /// buffer-pool sizing (~0.073 busy seconds per 10-op transaction);
  /// benches override it with their exact per-op cost.
  double seconds_per_op = 0.007;
  /// Re-run cycle detection every this many buckets.
  int redetect_buckets = 16;

  forecast::CycleDetector::Options cycle;

  Status Validate() const;
};

/// The forecast subsystem's sensor + model: a periodic sampler reading
/// per-tenant executed-op counters into fixed-capacity rings, a
/// per-server aggregate load series, an online cycle detector that
/// discovers period and trough phase, and a Holt-Winters seasonal
/// forecaster seeded from the detected cycle. Implements
/// forecast::LoadPredictor for the migration cost model / trough
/// scheduler.
///
/// Everything is driven by the sim clock; sampling order is server id
/// then tenant id, so runs are bit-reproducible.
class FleetLoadSampler : public forecast::LoadPredictor {
 public:
  /// `cluster` is the fleet under observation; it must outlive the
  /// sampler. Each bucket walks every server's tenants in the
  /// directory and reads the executed-op counter of the tenant's
  /// instance there; a tenant with no live instance (mid-handover,
  /// crashed) records zero for the bucket and keeps its baseline.
  FleetLoadSampler(Cluster* cluster, ForecastOptions options);
  ~FleetLoadSampler() override;

  FleetLoadSampler(const FleetLoadSampler&) = delete;
  FleetLoadSampler& operator=(const FleetLoadSampler&) = delete;

  /// Validates options and arms the periodic sampler (first bucket
  /// closes one bucket_seconds from now).
  Status Start();
  void Stop();
  bool running() const { return running_; }

  // --- LoadPredictor ----------------------------------------------
  bool Ready(uint64_t server_id) const override;
  double PredictLoad(uint64_t server_id, SimTime t) const override;
  double PredictLoadUpper(uint64_t server_id, SimTime t) const override;
  double CurrentLoad(uint64_t server_id) const override;

  // --- Introspection ----------------------------------------------
  const forecast::CycleEstimate& cycle(uint64_t server_id) const;
  const forecast::SampleRing& server_ring(uint64_t server_id) const;
  /// nullptr until the tenant has been sampled at least once.
  const forecast::SampleRing* tenant_ring(uint64_t tenant_id) const;
  /// Start of the next predicted trough bucket at or after `now`
  /// (server's detected cycle); returns `now` when no cycle is known.
  SimTime NextTroughStart(uint64_t server_id, SimTime now) const;
  const ForecastOptions& options() const { return options_; }
  uint64_t buckets_sampled() const { return buckets_sampled_; }

 private:
  struct ServerState {
    forecast::SampleRing ring;
    forecast::HoltWintersForecaster model;
    forecast::CycleEstimate cycle;
    explicit ServerState(const ForecastOptions& options)
        : ring(options.history_buckets) {}
  };

  void OnBucket(SimTime now);
  /// Absolute bucket index covering time `t`.
  int64_t BucketIndexAt(SimTime t) const;
  void EmitForecastUpdated(uint64_t server_id, const ServerState& state,
                           SimTime now);

  Cluster* cluster_;
  sim::Simulator* sim_;
  ForecastOptions options_;
  forecast::CycleDetector detector_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  std::vector<std::unique_ptr<ServerState>> servers_;
  /// tenant id -> throughput ring (ordered for deterministic metrics).
  std::map<uint64_t, std::unique_ptr<forecast::SampleRing>> tenants_;
  /// tenant id -> cumulative ops at the last bucket boundary.
  std::map<uint64_t, uint64_t> ops_baseline_;
  SimTime epoch_ = 0.0;
  uint64_t buckets_sampled_ = 0;
  bool running_ = false;
};

}  // namespace slacker

#endif  // SLACKER_SLACKER_FLEET_LOAD_SAMPLER_H_
