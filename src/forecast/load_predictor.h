#ifndef SLACKER_FORECAST_LOAD_PREDICTOR_H_
#define SLACKER_FORECAST_LOAD_PREDICTOR_H_

#include <cstdint>

#include "src/common/units.h"

namespace slacker::forecast {

/// What the cost model and scheduler need from a forecaster: a
/// normalized load prediction per server over future sim time. Load is
/// utilization-like — the fraction of the server's disk the workload is
/// expected to consume (0 idle, ~1 saturated; may exceed 1 under
/// overload). The production implementation is slacker::FleetLoadSampler
/// (src/slacker/fleet_load_sampler.h); tests substitute synthetic
/// predictors.
class LoadPredictor {
 public:
  virtual ~LoadPredictor() = default;

  /// A usable forecast exists for this server (enough history, cycle
  /// detected or model seeded). Until then the scheduler falls back to
  /// reactive behaviour.
  virtual bool Ready(uint64_t server_id) const = 0;

  /// Predicted normalized load at absolute sim time `t` (>= now).
  virtual double PredictLoad(uint64_t server_id, SimTime t) const = 0;

  /// Upper confidence edge of the same prediction (PredictLoad plus the
  /// forecast-error band) — the cost model prices risk with this.
  virtual double PredictLoadUpper(uint64_t server_id, SimTime t) const = 0;

  /// Last observed normalized load (the most recent complete bucket).
  virtual double CurrentLoad(uint64_t server_id) const = 0;
};

}  // namespace slacker::forecast

#endif  // SLACKER_FORECAST_LOAD_PREDICTOR_H_
