#include "src/forecast/holt_winters.h"

#include <cmath>

namespace slacker::forecast {
namespace {

/// Level smoothing in (0, 1).
constexpr double kAlpha = 0.25;
/// Trend smoothing.
constexpr double kBeta = 0.02;
/// Seasonal smoothing in [0, 1).
constexpr double kGamma = 0.15;
/// EWMA weight of the one-step absolute-error tracker.
constexpr double kErrorEwma = 0.10;

}  // namespace

Status HoltWintersForecaster::Seed(int season_buckets,
                                   const SampleRing& ring) {
  if (season_buckets < 2) {
    return Status::InvalidArgument("season must be >= 2 buckets");
  }
  const size_t m = static_cast<size_t>(season_buckets);
  if (ring.size() < m) {
    return Status::InvalidArgument("need one full season to seed");
  }

  // Seed from the oldest full season: level = season mean, per-bin
  // seasonal offsets = bin value - mean, trend = mean bucket-to-bucket
  // drift between the first and second season when available.
  double first_mean = 0.0;
  for (size_t i = 0; i < m; ++i) first_mean += ring.at(i);
  first_mean /= static_cast<double>(m);

  season_len_ = season_buckets;
  season_.assign(m, 0.0);
  const uint64_t first = ring.first_index();
  for (size_t i = 0; i < m; ++i) {
    season_[(first + i) % m] = ring.at(i) - first_mean;
  }
  level_ = first_mean;
  trend_ = 0.0;
  if (ring.size() >= 2 * m) {
    double second_mean = 0.0;
    for (size_t i = m; i < 2 * m; ++i) second_mean += ring.at(i);
    second_mean /= static_cast<double>(m);
    trend_ = (second_mean - first_mean) / static_cast<double>(m);
  }
  mae_ = 0.0;
  observed_ = 0;
  next_bucket_ = first + m;

  // Replay the rest of the history through the regular update, so a
  // freshly seeded model and one updated online agree.
  for (size_t i = m; i < ring.size(); ++i) Observe(ring.at(i));
  return Status::Ok();
}

void HoltWintersForecaster::Observe(double value) {
  SLACKER_CHECK(season_len_ > 0, "Observe before Seed");
  const size_t bin = static_cast<size_t>(next_bucket_ %
                                         static_cast<uint64_t>(season_len_));
  const double predicted = level_ + trend_ + season_[bin];
  const double err = value - predicted;
  const double abs_err = err < 0.0 ? -err : err;
  if (observed_ == 0) {
    mae_ = abs_err;
  } else {
    mae_ = mae_ + kErrorEwma * (abs_err - mae_);
  }

  const double prev_level = level_;
  level_ = kAlpha * (value - season_[bin]) +
           (1.0 - kAlpha) * (level_ + trend_);
  trend_ = kBeta * (level_ - prev_level) + (1.0 - kBeta) * trend_;
  season_[bin] = kGamma * (value - level_) +
                 (1.0 - kGamma) * season_[bin];

  ++next_bucket_;
  ++observed_;
}

double HoltWintersForecaster::Forecast(int h) const {
  SLACKER_CHECK(season_len_ > 0, "Forecast before Seed");
  if (h < 0) h = 0;
  const uint64_t bucket = next_bucket_ + static_cast<uint64_t>(h) - 1;
  const size_t bin =
      static_cast<size_t>(bucket % static_cast<uint64_t>(season_len_));
  return level_ + static_cast<double>(h) * trend_ + season_[bin];
}

HoltWintersForecaster::Band HoltWintersForecaster::ForecastBand(
    int h, double z) const {
  Band band;
  band.mid = Forecast(h);
  const double spread =
      z * mae_ * std::sqrt(static_cast<double>(h < 1 ? 1 : h));
  band.lo = band.mid - spread;
  if (band.lo < 0.0) band.lo = 0.0;
  band.hi = band.mid + spread;
  return band;
}

}  // namespace slacker::forecast
