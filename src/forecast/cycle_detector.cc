#include "src/forecast/cycle_detector.h"

#include <cmath>
#include <vector>

namespace slacker::forecast {
namespace {

/// A candidate within this fraction of the best correlation is a tie;
/// the smallest such lag wins (harmonic rejection).
constexpr double kTieFraction = 0.05;
/// Autocorrelation below this is noise, not a cycle.
constexpr double kMinConfidence = 0.4;

}  // namespace

Status CycleDetector::Options::Validate() const {
  if (min_period_buckets < 2) {
    return Status::InvalidArgument("min_period_buckets must be >= 2");
  }
  if (max_period_buckets < min_period_buckets) {
    return Status::InvalidArgument(
        "max_period_buckets must be >= min_period_buckets");
  }
  return Status::Ok();
}

CycleDetector::CycleDetector() : CycleDetector(Options()) {}

CycleDetector::CycleDetector(Options options) : options_(options) {}

CycleEstimate CycleDetector::Detect(const SampleRing& ring) const {
  CycleEstimate estimate;
  const size_t n = ring.size();
  // Two full candidate periods of history, so every lag in range has at
  // least one period's worth of overlapping pairs.
  if (n < static_cast<size_t>(2 * options_.max_period_buckets)) {
    return estimate;
  }

  // Copy out once: Detect is O(n * lags) over random indices, and the
  // modular arithmetic inside SampleRing::at would dominate.
  std::vector<double> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = ring.at(i);

  double mean = 0.0;
  for (size_t i = 0; i < n; ++i) mean += x[i];
  mean /= static_cast<double>(n);
  double variance = 0.0;
  for (size_t i = 0; i < n; ++i) {
    variance += (x[i] - mean) * (x[i] - mean);
  }
  if (variance <= 1e-12) return estimate;  // Flat series: no cycle.

  // r(L) = sum_i (x[i]-m)(x[i-L]-m) / sum_i (x[i]-m)^2, best lag wins.
  double best_r = 0.0;
  int best_lag = 0;
  std::vector<double> correlations;
  correlations.reserve(options_.max_period_buckets -
                       options_.min_period_buckets + 1);
  for (int lag = options_.min_period_buckets;
       lag <= options_.max_period_buckets; ++lag) {
    double num = 0.0;
    for (size_t i = lag; i < n; ++i) {
      num += (x[i] - mean) * (x[i - lag] - mean);
    }
    // Normalize by the pair count so short-overlap (large) lags are not
    // penalized relative to small ones.
    const double r = (num / static_cast<double>(n - lag)) /
                     (variance / static_cast<double>(n));
    correlations.push_back(r);
    if (r > best_r) {
      best_r = r;
      best_lag = lag;
    }
  }
  if (best_lag == 0 || best_r < kMinConfidence) return estimate;

  // Harmonic rejection: when the best lag is a multiple of a smaller
  // lag whose correlation ties it (within kTieFraction), the smaller
  // lag is the fundamental period. Only near-exact divisors qualify —
  // for a smooth cycle the correlation at best_lag +/- 1 also "ties",
  // but those neighbors are phase drift, not harmonics.
  int chosen = best_lag;
  for (int lag = options_.min_period_buckets; lag < best_lag; ++lag) {
    const int multiple = (best_lag + lag / 2) / lag;
    if (multiple < 2) continue;
    const int remainder = best_lag - multiple * lag;
    if (remainder > 1 || remainder < -1) continue;
    const double r = correlations[lag - options_.min_period_buckets];
    if (r >= best_r * (1.0 - kTieFraction)) {
      chosen = lag;
      break;
    }
  }

  // Phase: average the series per phase bin (absolute bucket index mod
  // period); the minimum bin is the trough.
  std::vector<double> bin_sum(chosen, 0.0);
  std::vector<int> bin_count(chosen, 0);
  const uint64_t first = ring.first_index();
  for (size_t i = 0; i < n; ++i) {
    const int bin = static_cast<int>((first + i) % chosen);
    bin_sum[bin] += x[i];
    ++bin_count[bin];
  }
  int trough = 0;
  double trough_avg = 0.0;
  bool have = false;
  for (int bin = 0; bin < chosen; ++bin) {
    if (bin_count[bin] == 0) continue;
    const double avg = bin_sum[bin] / static_cast<double>(bin_count[bin]);
    if (!have || avg < trough_avg) {
      have = true;
      trough_avg = avg;
      trough = bin;
    }
  }

  estimate.periodic = true;
  estimate.period_buckets = chosen;
  estimate.trough_phase = trough;
  estimate.confidence = best_r;
  return estimate;
}

}  // namespace slacker::forecast
