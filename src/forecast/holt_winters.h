#ifndef SLACKER_FORECAST_HOLT_WINTERS_H_
#define SLACKER_FORECAST_HOLT_WINTERS_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/forecast/ring_buffer.h"

namespace slacker::forecast {

/// Additive Holt-Winters triple-exponential smoothing over a bucketed
/// load series: level + trend + a seasonal component of fixed length
/// (the detected cycle period, in buckets). Produces point forecasts
/// and a confidence band from the running one-step absolute error.
///
/// All state updates are plain double arithmetic in a fixed order, so
/// the same sample sequence yields a bit-identical forecast on every
/// platform/build this repo targets (no FMA contraction is assumed:
/// each statement is a single rounding site).
class HoltWintersForecaster {
 public:
  /// (Re)seeds the model with season length `season_buckets` from the
  /// ring's history, then replays the remainder through Observe. The
  /// ring must hold at least one full season; returns InvalidArgument
  /// otherwise. `ring.first_index()` anchors the seasonal array to
  /// absolute bucket numbers, so forecasts line up with sim time.
  Status Seed(int season_buckets, const SampleRing& ring);

  /// Feeds the next bucket's sample (absolute bucket index = one past
  /// the previous). Requires a successful Seed first.
  void Observe(double value);

  bool seeded() const { return season_len_ > 0; }
  int season_buckets() const { return season_len_; }
  /// Absolute bucket index of the next sample Observe expects.
  uint64_t next_bucket() const { return next_bucket_; }

  /// Point forecast h buckets past the last observed sample (h >= 1;
  /// h == 0 returns the fitted value of the last bucket).
  double Forecast(int h) const;

  struct Band {
    double lo = 0.0;
    double mid = 0.0;
    double hi = 0.0;
  };
  /// Forecast with a +/- z * mae * sqrt(h) band (clamped at lo >= 0 —
  /// load is nonnegative).
  Band ForecastBand(int h, double z = 2.0) const;

  /// EWMA of |one-step-ahead error| — the forecast-error signal
  /// exported as a metric.
  double mean_abs_error() const { return mae_; }

 private:
  int season_len_ = 0;
  double level_ = 0.0;
  double trend_ = 0.0;
  /// season_[b] applies to absolute buckets with (index % season_len)
  /// == b.
  std::vector<double> season_;
  uint64_t next_bucket_ = 0;
  double mae_ = 0.0;
  uint64_t observed_ = 0;
};

}  // namespace slacker::forecast

#endif  // SLACKER_FORECAST_HOLT_WINTERS_H_
