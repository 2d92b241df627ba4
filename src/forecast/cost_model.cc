#include "src/forecast/cost_model.h"

#include "src/common/invariant.h"

namespace slacker::forecast {
namespace {

/// Evaluation step when integrating predicted load over the window.
constexpr SimTime kIntegrationStep = 5.0;

}  // namespace

Status CostModelOptions::Validate() const {
  if (violation_knee <= 0.0 || violation_knee > 1.0) {
    return Status::InvalidArgument("violation_knee must be in (0, 1]");
  }
  if (migration_load_at_ceiling < 0.0 || migration_load_at_ceiling > 1.0) {
    return Status::InvalidArgument(
        "migration_load_at_ceiling must be in [0, 1]");
  }
  if (throttle_floor_mbps <= 0.0 ||
      throttle_ceiling_mbps < throttle_floor_mbps) {
    return Status::InvalidArgument("bad throttle floor/ceiling");
  }
  return Status::Ok();
}

MigrationCostModel::MigrationCostModel(const LoadPredictor* predictor,
                                       CostModelOptions options)
    : predictor_(predictor), options_(options) {
  SLACKER_CHECK(predictor != nullptr, "cost model needs a predictor");
}

double MigrationCostModel::LoadAt(uint64_t server_id, SimTime t) const {
  return options_.use_upper_band ? predictor_->PredictLoadUpper(server_id, t)
                                 : predictor_->PredictLoad(server_id, t);
}

double MigrationCostModel::RateAtLoad(double load) const {
  // The PID throttle drains rate as latency (≈ load) approaches the
  // setpoint: model it as a linear ramp from the ceiling at zero load
  // to the floor at the violation knee and beyond.
  double headroom = 1.0 - load / options_.violation_knee;
  if (headroom < 0.0) headroom = 0.0;
  if (headroom > 1.0) headroom = 1.0;
  return options_.throttle_floor_mbps +
         (options_.throttle_ceiling_mbps - options_.throttle_floor_mbps) *
             headroom;
}

MigrationCostEstimate MigrationCostModel::Price(uint64_t source_server,
                                                uint64_t target_server,
                                                uint64_t data_bytes,
                                                SimTime start) const {
  std::vector<uint64_t> ends;
  ends.push_back(source_server);
  if (target_server != source_server) ends.push_back(target_server);
  return PriceServers(ends, data_bytes, start);
}

MigrationCostEstimate MigrationCostModel::PriceServers(
    const std::vector<uint64_t>& servers, uint64_t data_bytes,
    SimTime start) const {
  MigrationCostEstimate estimate;
  estimate.start = start;
  if (servers.empty()) return estimate;

  // The binding end (highest predicted load at the start) sets the
  // modeled throttle rate, hence the duration.
  double start_load = 0.0;
  for (uint64_t id : servers) {
    const double load = LoadAt(id, start);
    if (load > start_load) start_load = load;
  }
  const double rate = RateAtLoad(start_load);
  estimate.rate_mbps = rate;
  const double mib = static_cast<double>(data_bytes) /
                     static_cast<double>(kMiB);
  estimate.duration_seconds = mib / rate;

  // Interference the stream adds to each end, scaled with the rate.
  const double interference = options_.migration_load_at_ceiling * rate /
                              options_.throttle_ceiling_mbps;

  // Integrate excess-weighted violation server-seconds over the
  // predicted window: each step where (predicted + interference)
  // clears the knee contributes its excess (in knee units) x step x
  // servers-in-violation seconds.
  const SimTime step = kIntegrationStep;
  double violation = 0.0;
  const int steps =
      estimate.duration_seconds <= 0.0
          ? 0
          : static_cast<int>(estimate.duration_seconds / step) + 1;
  for (int i = 0; i < steps; ++i) {
    const SimTime t = start + static_cast<double>(i) * step;
    SimTime span = step;
    if (t + span > start + estimate.duration_seconds) {
      span = start + estimate.duration_seconds - t;
      if (span <= 0.0) break;
    }
    for (uint64_t id : servers) {
      const double load = LoadAt(id, t) + interference;
      if (load > options_.violation_knee) {
        violation += (load - options_.violation_knee) /
                     options_.violation_knee * span;
      }
    }
  }
  estimate.violation_seconds = violation;
  return estimate;
}

}  // namespace slacker::forecast
