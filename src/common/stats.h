#ifndef SLACKER_COMMON_STATS_H_
#define SLACKER_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/ring_deque.h"

namespace slacker {

/// Streaming mean/variance/min/max via Welford's algorithm. O(1) per
/// observation; numerically stable for long runs.
class RunningStats {
 public:
  void Add(double x);
  void Reset();

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance; 0 with fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean over observations whose timestamp falls in a trailing window —
/// the smoothing the paper applies to transaction latencies (3 s window
/// sampled every 1 s) before feeding them to the PID controller.
class SlidingWindowMean {
 public:
  /// `window` is the trailing extent in simulated seconds.
  explicit SlidingWindowMean(double window);

  /// Records observation `value` occurring at time `now`.
  void Add(double now, double value);

  /// Mean of observations in (now - window, now]. Returns `fallback`
  /// when the window holds no observations (e.g., the server is stalled
  /// and nothing completed — the paper's monitor reports the last known
  /// average in that case; callers pass what they need).
  double MeanAt(double now, double fallback = 0.0);

  /// Number of observations currently inside the window at time `now`.
  size_t CountAt(double now);

 private:
  void Evict(double now);

  struct Sample {
    double time;
    double value;
  };

  double window_;
  // Flat ring, not std::deque: one eviction scan runs per completion on
  // every server, and deque's block churn was measurable in profiles.
  RingDeque<Sample> samples_;
  double sum_ = 0.0;
};

/// Percentile over a recorded sample vector. Keeps every observation;
/// intended for per-experiment traces (bounded by experiment length),
/// not unbounded production telemetry.
class PercentileTracker {
 public:
  void Add(double x) { values_.push_back(x); }
  size_t count() const { return values_.size(); }

  /// p in [0, 100]; nearest-rank percentile. Returns 0 when empty.
  double Percentile(double p) const;
  double Mean() const;
  double Stddev() const;

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace slacker

#endif  // SLACKER_COMMON_STATS_H_
