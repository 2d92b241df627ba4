#ifndef SLACKER_FORECAST_CYCLE_DETECTOR_H_
#define SLACKER_FORECAST_CYCLE_DETECTOR_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/forecast/ring_buffer.h"

namespace slacker::forecast {

/// What the detector discovered about a load series.
struct CycleEstimate {
  /// A period was found with confidence at or above the detector's
  /// noise floor.
  bool periodic = false;
  /// Discovered period, in buckets.
  int period_buckets = 0;
  /// Trough phase: absolute bucket index mod period of the phase bin
  /// with the lowest average load. A bucket b is "in the trough" when
  /// the circular distance of (b mod period) from this bin is small.
  int trough_phase = 0;
  /// Peak autocorrelation at the chosen lag, in [-1, 1].
  double confidence = 0.0;
};

/// Online cycle detector: normalized autocorrelation of a bucketed load
/// series over a candidate lag range. Deterministic — accumulation runs
/// in fixed index order and ties break toward the smallest lag, so the
/// same samples always yield the same estimate (the fundamental period
/// wins over its harmonics, whose correlation can only tie it).
class CycleDetector {
 public:
  struct Options {
    /// Candidate period range, in buckets. The series must hold at
    /// least 2x max_period_buckets samples before detection fires.
    int min_period_buckets = 8;
    int max_period_buckets = 256;

    Status Validate() const;
  };

  CycleDetector();
  explicit CycleDetector(Options options);

  /// Runs detection over the ring. Uses ring.first_index() to anchor
  /// the trough phase to absolute bucket numbers.
  CycleEstimate Detect(const SampleRing& ring) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace slacker::forecast

#endif  // SLACKER_FORECAST_CYCLE_DETECTOR_H_
