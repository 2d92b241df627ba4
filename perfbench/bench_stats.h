#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
/// Sorts a copy, so callers may pass unsorted samples.
double Percentile(std::vector<double> values, double p);

/// Median of `values` (the p50 of Percentile); 0 when empty.
double Median(std::vector<double> values);

/// Tail percentiles a report may quote, from the median up.
inline constexpr double kReportablePercentiles[] = {50.0, 90.0, 95.0, 99.0,
                                                    99.9};

/// The highest reportable percentile that leaves at least `min_beyond`
/// of `samples` above it, or 0 when even the median does not. A tail
/// percentile read from fewer samples than that is one outlier's value.
double HighestSupportedPercentile(size_t samples, size_t min_beyond = 10);

/// Order-sensitive digest of simulated outputs. Doubles fold by their
/// bit pattern, so two runs agree only when every value is identical.
class OutputDigest {
 public:
  void Add(uint64_t value);
  void AddDouble(double value);
  uint64_t value() const { return digest_; }

 private:
  uint64_t digest_ = 0x5bd1e995ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
