#ifndef SLACKER_SLACKER_FLUID_MIGRATION_H_
#define SLACKER_SLACKER_FLUID_MIGRATION_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/range/key_range.h"
#include "src/sim/callback.h"
#include "src/sim/lifetime.h"
#include "src/slacker/cluster.h"
#include "src/slacker/migration.h"

namespace slacker {

/// Parameters for one fluid (range-granular) migration.
struct FluidMigrationOptions {
  /// Units to carve the tenant into. The partitioner aligns cuts to
  /// B+-tree subtree separators, so the actual count may be lower for
  /// small tables. 1 is whole-tenant compatibility mode: no splits, a
  /// single range job moving [0, kNoUpperBound).
  size_t target_ranges = 8;
  /// Template for every per-range job (throttle, chunking, codec).
  /// mode must be kLive; range_scoped/range are filled per job.
  MigrationOptions migration;

  Status Validate() const;
};

/// Everything measured about one fluid migration: the per-range reports
/// plus the aggregate that matters for the paper's comparison — the
/// *maximum* per-range freeze window, since clients of any one key only
/// ever wait out their own range's handover, not the whole tenant's.
struct [[nodiscard]] FluidMigrationReport {
  Status status;
  uint64_t tenant_id = 0;
  uint64_t target_server = 0;
  size_t ranges_planned = 0;
  size_t ranges_moved = 0;
  /// One report per launched range job, in launch order.
  std::vector<MigrationReport> ranges;
  /// Longest single-range freeze window (the fluid handover latency a
  /// worst-placed client observes).
  double max_downtime_ms = 0.0;
  /// Sum of all per-range freeze windows (total disruption budget).
  double total_downtime_ms = 0.0;
  SimTime start_time = 0.0;
  SimTime end_time = 0.0;
};

/// Orchestrates a tenant move as a sequence of per-range MigrationJobs
/// (DESIGN.md §16, after Megaphone's fluid migration): split the
/// tenant's keyspace along B+-tree subtree boundaries, then migrate one
/// range at a time — each with its own snapshot, delta rounds, and
/// sub-range freeze window — until the whole tenant lives on the
/// target. Ranges migrate sequentially: the per-server migration slack
/// budget admits one job per tenant, and serial ranges keep each freeze
/// window minimal, which is the point. A mid-sequence failure leaves
/// the tenant sharded across source and target — routable and
/// consistent (the router covers every key), just not converged; the
/// caller may retry the remainder.
class FluidMigrator {
 public:
  using DoneCallback = sim::Callback<void(const FluidMigrationReport&)>;

  /// `cluster` must outlive the migrator.
  FluidMigrator(Cluster* cluster, uint64_t tenant_id, uint64_t target_server,
                FluidMigrationOptions options, DoneCallback done);

  FluidMigrator(const FluidMigrator&) = delete;
  FluidMigrator& operator=(const FluidMigrator&) = delete;

  /// Splits the tenant and launches the first range job.
  Status Start();

  bool finished() const { return finished_; }
  const FluidMigrationReport& report() const { return report_; }

 private:
  void StartNextRange();
  void OnRangeDone(const MigrationReport& range_report);
  /// Merges the tenant's ranges back into one once all of them land on
  /// the target (keeps the router table small once sharding is no
  /// longer needed). Skipped when the tenant ends up still sharded.
  void MergeConverged();
  void Finish(Status status);

  Cluster* cluster_;
  uint64_t tenant_id_;
  uint64_t target_server_;
  FluidMigrationOptions options_;
  DoneCallback done_;

  /// Ranges still to move, in key order (refreshed from the router at
  /// each step — a range job rewrites the table it reads).
  std::vector<range::KeyRange> pending_;
  FluidMigrationReport report_;
  bool started_ = false;
  bool finished_ = false;
  /// See MigrationJob::lifetime_.
  sim::Lifetime lifetime_;
};

}  // namespace slacker

#endif  // SLACKER_SLACKER_FLUID_MIGRATION_H_
