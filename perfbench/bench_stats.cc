#include "perfbench/bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/checksum.h"

namespace perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile of n samples. The slack
/// absorbs rounding in p / 100 * n (99.9% of 10000 is rank 9990).
double NearestRank(double p, size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = NearestRank(p, values.size());
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double HighestSupportedPercentile(size_t samples, size_t min_beyond) {
  double best = 0.0;
  for (const double p : kReportablePercentiles) {
    // Samples ranked beyond the nearest-rank p-th one.
    const double rank = NearestRank(p, samples);
    const double beyond = static_cast<double>(samples) - rank;
    if (samples > 0 && beyond >= static_cast<double>(min_beyond)) best = p;
  }
  return best;
}

void OutputDigest::Add(uint64_t value) {
  digest_ = slacker::HashCombine(digest_, value);
}

void OutputDigest::AddDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

}  // namespace perfbench
