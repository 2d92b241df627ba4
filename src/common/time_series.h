#ifndef SLACKER_COMMON_TIME_SERIES_H_
#define SLACKER_COMMON_TIME_SERIES_H_

#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/units.h"

namespace slacker::common {

struct TracePoint {
  double t = 0.0;
  double value = 0.0;
};

/// An append-only time series of (time, value) observations with the
/// reductions the paper's figures need: sliding-window smoothing
/// (Figures 5/6/12/13 average latency over a 3 s window), interval
/// statistics, and CSV export for external plotting.
class TimeSeries {
 public:
  void Add(double t, double value);

  const std::vector<TracePoint>& points() const { return points_; }
  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  /// Series sampled every `step` seconds, each sample the mean of raw
  /// observations in the trailing `window`. Empty windows repeat the
  /// previous sample (a stalled server keeps its last latency reading
  /// on the plot). Covers [t_begin, t_end]; pass negative bounds to use
  /// the data's own extent.
  std::vector<TracePoint> Smoothed(double step, double window,
                                   double t_begin = -1.0,
                                   double t_end = -1.0) const;

  /// Statistics over raw observations with t in [t0, t1].
  RunningStats StatsBetween(double t0, double t1) const;
  RunningStats StatsAll() const;

  /// "t,value\n" rows with a header line.
  std::string ToCsv(const std::string& value_name = "value") const;

 private:
  std::vector<TracePoint> points_;  // Times are non-decreasing.
};

}  // namespace slacker::common

#endif  // SLACKER_COMMON_TIME_SERIES_H_
