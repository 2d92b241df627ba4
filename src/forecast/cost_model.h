#ifndef SLACKER_FORECAST_COST_MODEL_H_
#define SLACKER_FORECAST_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/forecast/load_predictor.h"

namespace slacker::forecast {

/// One candidate migration start, priced. The cost currency is
/// predicted SLA-violation server-seconds (Voorsluys et al.: price the
/// SLA damage of the migration into the plan), integrated over the
/// predicted migration window at both ends of the transfer.
struct MigrationCostEstimate {
  SimTime start = 0.0;
  /// Predicted transfer duration at the modeled throttle rate.
  double duration_seconds = 0.0;
  /// Modeled average transfer rate over the window (MB/s).
  double rate_mbps = 0.0;
  /// Predicted SLA-violation server-seconds across source + target.
  double violation_seconds = 0.0;
};

struct CostModelOptions {
  /// Load above this accrues predicted violation-seconds (Equation 1's
  /// R0 — the utilization level above which SLA violations begin).
  double violation_knee = 0.55;
  /// Normalized load the migration stream itself adds to each end while
  /// the transfer runs at the throttle ceiling; scaled down linearly
  /// with the modeled rate.
  double migration_load_at_ceiling = 0.25;
  /// Throttle model: the PID floors/ceilings the transfer rate between
  /// these (MB/s); the modeled rate degrades from ceiling to floor as
  /// predicted load approaches the knee.
  double throttle_floor_mbps = 2.0;
  double throttle_ceiling_mbps = 30.0;
  /// Price with the upper confidence band instead of the point
  /// forecast (risk-averse planning).
  bool use_upper_band = true;

  Status Validate() const;
};

/// Prices a candidate migration at a candidate start time from the
/// load forecast: the modeled throttle rate (hence duration) follows
/// the predicted load at both ends, and every integration step where
/// predicted load + migration interference exceeds the violation knee
/// contributes (excess-weighted) violation server-seconds.
class MigrationCostModel {
 public:
  MigrationCostModel(const LoadPredictor* predictor,
                     CostModelOptions options = CostModelOptions());

  /// Price moving `data_bytes` from `source` to `target` starting at
  /// `start` (absolute sim time).
  MigrationCostEstimate Price(uint64_t source_server, uint64_t target_server,
                              uint64_t data_bytes, SimTime start) const;

  /// Price draining `data_bytes` spread across `servers` (an upgrade
  /// wave evacuation): the window cost integrates every listed server's
  /// predicted load. Targets are unknown ahead of planning, so only the
  /// listed (source) ends are priced — comparisons between candidate
  /// start times remain meaningful.
  MigrationCostEstimate PriceServers(const std::vector<uint64_t>& servers,
                                     uint64_t data_bytes,
                                     SimTime start) const;

  const CostModelOptions& options() const { return options_; }
  const LoadPredictor* predictor() const { return predictor_; }

 private:
  double LoadAt(uint64_t server_id, SimTime t) const;
  /// Modeled transfer rate (MB/s) when the binding end sees `load`.
  double RateAtLoad(double load) const;

  const LoadPredictor* predictor_;
  CostModelOptions options_;
};

}  // namespace slacker::forecast

#endif  // SLACKER_FORECAST_COST_MODEL_H_
