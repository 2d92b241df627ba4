#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

namespace slacker {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Reset() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

SlidingWindowMean::SlidingWindowMean(double window) : window_(window) {}

void SlidingWindowMean::Add(double now, double value) {
  samples_.push_back({now, value});
  sum_ += value;
  Evict(now);
}

void SlidingWindowMean::Evict(double now) {
  while (!samples_.empty() && samples_.front().time <= now - window_) {
    sum_ -= samples_.front().value;
    samples_.pop_front();
  }
}

double SlidingWindowMean::MeanAt(double now, double fallback) {
  Evict(now);
  if (samples_.empty()) return fallback;
  return sum_ / static_cast<double>(samples_.size());
}

size_t SlidingWindowMean::CountAt(double now) {
  Evict(now);
  return samples_.size();
}

double PercentileTracker::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

double PercentileTracker::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double PercentileTracker::Stddev() const {
  if (values_.size() < 2) return 0.0;
  const double mean = Mean();
  double m2 = 0.0;
  for (double v : values_) m2 += (v - mean) * (v - mean);
  return std::sqrt(m2 / static_cast<double>(values_.size()));
}

}  // namespace slacker
