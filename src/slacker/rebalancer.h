#ifndef SLACKER_SLACKER_REBALANCER_H_
#define SLACKER_SLACKER_REBALANCER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/sim/lifetime.h"
#include "src/slacker/cluster.h"
#include "src/slacker/migration_supervisor.h"
#include "src/slacker/placement.h"

namespace slacker {

namespace forecast {
class TroughScheduler;
}  // namespace forecast

/// Policy knobs for the autonomic control loop.
struct RebalancerOptions {
  /// Control-loop sampling period (simulated seconds). Each tick
  /// samples per-server utilization accumulated since the previous
  /// tick, so the period is also the observation window.
  SimTime period = 10.0;
  /// Settle delay before the re-plan that follows a completed
  /// handover — long enough for the post-migration landscape to
  /// register some utilization, short enough to keep converging well
  /// inside one period.
  SimTime replan_delay = 1.0;

  /// When/which/where policy (thresholds, headroom).
  PlacementOptions placement;
  /// Template for every migration the loop executes (throttle kind,
  /// PID gains, chunking). The PID setpoint doubles as the guard-band
  /// reference latency.
  MigrationOptions migration;
  /// Retry policy wrapped around each executed plan.
  SupervisorOptions supervisor;

  /// The migration-slack budget: Slacker guarantees one migration's
  /// I/O stays inside a server's latency slack, so admission caps how
  /// many migrations may share any one server's slack at a time.
  int max_concurrent_per_source = 1;
  int max_concurrent_per_target = 1;
  /// Fleet-wide cap across all concurrent supervised migrations.
  int max_concurrent_total = 4;

  /// Defer a plan while a involved server's sliding-window latency is
  /// within this fraction of the PID setpoint (see
  /// control::LatencyMonitor::WithinGuardBand). Relief plans guard the
  /// *target* only — the source is overloaded by definition, and the
  /// per-migration PID throttle already protects it; consolidation and
  /// drain-evacuation plans are non-urgent work and guard both ends.
  double guard_band_fraction = 0.2;

  /// Also plan consolidation (emptying near-idle servers) when the
  /// fleet is calm: no hotspots and no migrations in flight.
  bool consolidate = true;

  /// Optional trough scheduler (DESIGN.md §13). When set, non-urgent
  /// plans (consolidation, drain evacuation) are first offered to the
  /// scheduler, which may defer them into a predicted load trough
  /// under a fallback deadline. Relief plans never consult it — a
  /// hotspot is bleeding SLA right now. Null keeps the loop purely
  /// reactive (the pre-forecast behavior, bit for bit).
  forecast::TroughScheduler* trough_scheduler = nullptr;

  Status Validate() const;
};

/// Counters exposed for benches and tests.
struct RebalancerStats {
  uint64_t ticks = 0;
  uint64_t plans_considered = 0;
  uint64_t plans_admitted = 0;
  uint64_t deferred_budget = 0;
  uint64_t deferred_guard_band = 0;
  uint64_t skipped_busy = 0;
  uint64_t migrations_ok = 0;
  uint64_t migrations_failed = 0;
  /// Drain evacuations admitted (subset of plans_admitted); the upgrade
  /// orchestrator watches this to tell progress from a stuck wave.
  uint64_t drain_admitted = 0;
  /// Overloaded (util > overload_threshold) up-servers at the last tick.
  int last_overloaded = 0;
  /// High-water mark of concurrent supervised migrations — tests
  /// assert this never exceeds max_concurrent_total.
  size_t max_inflight_observed = 0;
  /// Trough-scheduler outcomes (zero when no scheduler is wired in):
  /// plans held for a predicted trough, plans released because their
  /// trough arrived, and plans force-released at the fallback deadline.
  uint64_t deferred_trough = 0;
  uint64_t trough_released = 0;
  uint64_t deadline_forced = 0;
  /// Relief plans admitted (subset of plans_admitted) — benches assert
  /// urgent relief latency is untouched by predictive scheduling.
  uint64_t relief_admitted = 0;
};

/// The closed loop that turns Slacker's mechanisms into an autonomic
/// system (§1.2's when/which/where, §6's multi-migration outlook): on a
/// configurable period it samples CollectClusterStats over the live
/// fleet, asks PlacementAdvisor for relief (always), drain-evacuation
/// (when servers are draining, DESIGN.md §12), and consolidation (when
/// calm) plans, and executes admitted plans through retrying
/// MigrationSupervisors. An admission controller rations the
/// migration-slack budget — per-source, per-target, and fleet-wide
/// concurrency caps plus a latency guard band that defers plans while
/// an involved server is already flirting with the PID setpoint — and
/// every completed handover triggers a prompt re-plan, since each
/// migration changes the landscape the next decision sees.
class Rebalancer {
 public:
  Rebalancer(Cluster* cluster, RebalancerOptions options);

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  /// Validates options, resets the per-server utilization epochs, and
  /// arms the periodic control loop (first tick one period from now).
  Status Start();
  /// Halts planning. Migrations already in flight run to completion
  /// under their supervisors (until the rebalancer is destroyed).
  void Stop();
  bool running() const { return running_; }

  /// Runs one control-loop pass immediately (benches and tests drive
  /// deterministic scenarios with this; the periodic timer calls the
  /// same path).
  void TickNow();

  size_t inflight() const { return inflight_.size(); }
  const RebalancerStats& stats() const { return stats_; }

  /// Cancels every in-flight *drain* evacuation and stops its
  /// supervisor from retrying (relief/consolidation migrations are left
  /// alone). The upgrade orchestrator's abort path calls this before
  /// rolling back. Returns the number of evacuations quenched.
  int QuenchDrainEvacuations(const std::string& reason);

 private:
  struct InflightMigration {
    uint64_t tenant_id = 0;
    uint64_t source_server = 0;
    uint64_t target_server = 0;
    /// Launched as a drain evacuation (QuenchDrainEvacuations' scope).
    bool drain = false;
    std::unique_ptr<MigrationSupervisor> supervisor;
  };

  void Tick(SimTime now);
  /// Admission controller: true to launch now; false defers/skips with
  /// `reason` set to the trace vocabulary of RebalanceDecision.
  /// `non_urgent` plans (consolidation, drain evacuation) guard-band
  /// both ends; relief guards the target only.
  bool Admit(const MigrationPlan& plan, bool non_urgent, SimTime now,
             std::string* reason);
  /// `kind` is the RebalanceDecision vocabulary: "relief", "drain", or
  /// "consolidation".
  void Launch(const MigrationPlan& plan, const char* kind, bool drain);
  void OnMigrationDone(uint64_t tenant_id, const MigrationReport& report);
  int InflightFrom(uint64_t server_id) const;
  int InflightInto(uint64_t server_id) const;
  bool TenantBusy(uint64_t tenant_id) const;

  Cluster* cluster_;
  sim::Simulator* sim_;
  RebalancerOptions options_;
  PlacementAdvisor advisor_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  /// Per-tenant executed-op baseline threaded through
  /// CollectClusterStats samples.
  std::vector<std::pair<uint64_t, uint64_t>> ops_baseline_;
  std::vector<InflightMigration> inflight_;
  RebalancerStats stats_;
  bool running_ = false;
  /// Guards sim callbacks against a destroyed rebalancer.
  sim::Lifetime lifetime_;
};

}  // namespace slacker

#endif  // SLACKER_SLACKER_REBALANCER_H_
