#ifndef PERFBENCH_SCENARIO_H_
#define PERFBENCH_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// The benchmark's workloads (README.md says why each was chosen).
enum class Workload {
  /// fig18's fluid arm: cached tenants under single-op updates, server
  /// 0's tenants moved in 8-range jobs at a fixed 2 MB/s.
  kFleetWrites,
  /// fig14 at fleet scale: 85/15 10-op transactions on tenants 8x their
  /// buffer pool; hotspots relieved by PID-throttled whole-tenant moves.
  kFleetReads,
  /// fig15's network-bound arm: one 1 GiB paper tenant moved under the
  /// adaptive codec at a 12 MB/s ceiling.
  kBulkCodec,
};

bool ParseWorkload(std::string_view name, Workload* workload);

struct RunOptions {
  Workload workload = Workload::kFleetWrites;
  /// Seeds every transaction generator; the same seed gives the same
  /// simulated run.
  uint64_t seed = 1;
  /// Cut the timed phase into short RunUntil slices labelled with the
  /// phases of the jobs in flight, and time setup and audit calls.
  bool traced = false;
  /// Shrunken fleet and data for the benchmark's own tests.
  bool quick = false;
  /// Traced runs write their spans here as Chrome trace JSON.
  std::string trace_out;
};

/// One set-up, timed phase and audit of a workload.
struct RunResult {
  /// True when every end-of-run correctness check passed.
  bool correct = false;
  std::vector<std::string> failures;
  /// Transactions that arrived, and those that failed (all of them
  /// when a correctness check failed).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Fold of every latency sample, migration report and final tenant
  /// state; identical across runs of one seed, traced or not.
  uint64_t digest = 0;
  /// Wall seconds of the timed phase (the RunUntil calls).
  double timed_seconds = 0.0;
  /// The memory probe's mean cost during the timed phase; 0 on a
  /// workload that does not run it.
  double probe_ns_per_access = 0.0;
  /// End-to-end metrics always; per-layer metrics in traced runs.
  std::vector<std::pair<std::string, double>> metrics;

  /// The named metric, or NaN when the run did not report it.
  double Metric(std::string_view name) const;
};

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SCENARIO_H_
