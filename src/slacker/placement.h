#ifndef SLACKER_SLACKER_PLACEMENT_H_
#define SLACKER_SLACKER_PLACEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/slacker/cluster.h"

namespace slacker {

/// One tenant's observed footprint on its server.
struct TenantLoadStat {
  uint64_t tenant_id = 0;
  /// Fraction of the server's disk this tenant consumes (0..1).
  double demand = 0.0;
  /// Data to copy if migrated.
  uint64_t data_bytes = 0;
};

struct ServerLoadStat {
  uint64_t server_id = 0;
  /// Total disk utilization (0..1).
  double utilization = 0.0;
  /// Drain mode (DESIGN.md §12): never a migration target; its tenants
  /// are evacuation candidates via PlanDrain.
  bool draining = false;
  std::vector<TenantLoadStat> tenants;
};

struct PlacementOptions {
  /// A server above this utilization is a hotspot (Equation 1's R0 —
  /// the level above which SLA violations begin).
  double overload_threshold = 0.70;
  /// Consolidation: a server below this is a candidate to be emptied
  /// so it can be shut down (§1.3).
  double consolidation_threshold = 0.15;

  Status Validate() const;
};

/// A recommended migration.
struct MigrationPlan {
  uint64_t tenant_id = 0;
  uint64_t source_server = 0;
  uint64_t target_server = 0;
  std::string rationale;
};

/// Answers the §1.2 questions Slacker's mechanism leaves to policy:
/// *when* to migrate (a server exceeds the overload threshold, or is
/// idle enough to consolidate away), *which* tenant (the smallest whose
/// removal clears the hotspot — least data to copy), and *where* (the
/// least-loaded server with enough headroom). Pure function of the
/// observed stats; the caller executes plans via Cluster::StartMigration
/// so Slacker's throttle handles *how*.
class PlacementAdvisor {
 public:
  explicit PlacementAdvisor(PlacementOptions options = PlacementOptions());

  /// Hotspot-relief plans (one per overloaded server at most; re-plan
  /// after executing, since each migration changes the landscape).
  std::vector<MigrationPlan> PlanRelief(
      const std::vector<ServerLoadStat>& servers) const;

  /// Consolidation plans: empty out near-idle servers into the busiest
  /// server that still has headroom.
  std::vector<MigrationPlan> PlanConsolidation(
      const std::vector<ServerLoadStat>& servers) const;

  /// Drain-evacuation plans: every tenant on a draining server, moved
  /// to non-draining targets worst-fit (like relief, spreading the
  /// evacuation thin), smallest data footprint first so evacuations
  /// land quickly. Unlike consolidation this is not all-or-nothing —
  /// whatever fits moves now, the rest is re-planned next tick.
  std::vector<MigrationPlan> PlanDrain(
      const std::vector<ServerLoadStat>& servers) const;

  const PlacementOptions& options() const { return options_; }

 private:
  /// Least-loaded server (by projected utilization) able to absorb
  /// `demand` under threshold-headroom; -1 if none. Worst-fit spreads
  /// relief moves thin so no target becomes the next hotspot.
  int PickTarget(const std::vector<ServerLoadStat>& servers,
                 uint64_t exclude_server, double demand,
                 const std::vector<double>& projected) const;
  /// Best-fit counterpart for consolidation: the *busiest* server (by
  /// projected utilization) that still absorbs `demand` under
  /// threshold-headroom, never a server itself at or below the
  /// consolidation threshold (it is a candidate to be emptied — packing
  /// tenants into it would refill a server scheduled for shutdown);
  /// -1 if none.
  int PickConsolidationTarget(const std::vector<ServerLoadStat>& servers,
                              uint64_t exclude_server, double demand,
                              const std::vector<double>& projected) const;

  PlacementOptions options_;
};

/// Samples live stats from a cluster: per-server disk utilization since
/// the last ResetStats, with per-tenant demand apportioned by executed
/// operation counts since `previous` (pass an empty vector the first
/// time). Updates `ops_baseline` in place for the next sample.
std::vector<ServerLoadStat> CollectClusterStats(
    Cluster* cluster, std::vector<std::pair<uint64_t, uint64_t>>*
                          ops_baseline);

}  // namespace slacker

#endif  // SLACKER_SLACKER_PLACEMENT_H_
