#include "src/common/time_series.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace slacker::common {

void TimeSeries::Add(double t, double value) {
  points_.push_back(TracePoint{t, value});
}

namespace {

struct PointTimeLess {
  bool operator()(const TracePoint& p, double t) const { return p.t < t; }
  bool operator()(double t, const TracePoint& p) const { return t < p.t; }
};

}  // namespace

std::vector<TracePoint> TimeSeries::Smoothed(double step, double window,
                                             double t_begin,
                                             double t_end) const {
  std::vector<TracePoint> out;
  if (points_.empty() || step <= 0.0) return out;
  const double begin = t_begin >= 0.0 ? t_begin : points_.front().t;
  const double end = t_end >= 0.0 ? t_end : points_.back().t;
  double last_value = 0.0;
  bool have_last = false;
  for (double t = begin; t <= end + 1e-9; t += step) {
    const double lo = t - window;
    auto first = std::lower_bound(points_.begin(), points_.end(), lo,
                                  PointTimeLess{});
    auto last = std::upper_bound(points_.begin(), points_.end(), t,
                                 PointTimeLess{});
    double sum = 0.0;
    size_t n = 0;
    for (auto it = first; it != last; ++it) {
      sum += it->value;
      ++n;
    }
    if (n > 0) {
      last_value = sum / static_cast<double>(n);
      have_last = true;
    }
    if (have_last) out.push_back(TracePoint{t, last_value});
  }
  return out;
}

RunningStats TimeSeries::StatsBetween(double t0, double t1) const {
  RunningStats stats;
  auto first = std::lower_bound(points_.begin(), points_.end(), t0,
                                PointTimeLess{});
  auto last = std::upper_bound(points_.begin(), points_.end(), t1,
                               PointTimeLess{});
  for (auto it = first; it != last; ++it) stats.Add(it->value);
  return stats;
}

RunningStats TimeSeries::StatsAll() const {
  RunningStats stats;
  for (const TracePoint& p : points_) stats.Add(p.value);
  return stats;
}

std::string TimeSeries::ToCsv(const std::string& value_name) const {
  std::ostringstream out;
  out << "t," << value_name << "\n";
  for (const TracePoint& p : points_) {
    out << p.t << "," << p.value << "\n";
  }
  return out.str();
}

}  // namespace slacker::common
