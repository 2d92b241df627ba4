#ifndef SLACKER_SLACKER_UPGRADE_H_
#define SLACKER_SLACKER_UPGRADE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/callback.h"
#include "src/sim/simulator.h"
#include "src/slacker/cluster.h"
#include "src/slacker/rebalancer.h"

namespace slacker {

/// Policy knobs for a rolling fleet upgrade (DESIGN.md §12).
struct UpgradeOptions {
  /// Version every server should end up on. Must be greater than the
  /// version of every server in the fleet at Start().
  uint32_t target_version = 0;

  /// Servers patched per wave after the canary wave. The first wave is
  /// always a single canary server, so a bad build trips the health
  /// gate while only one server runs it.
  int wave_size = 4;

  /// Server downtime while the binary is swapped (crash → patch →
  /// restart).
  SimTime patch_seconds = 5.0;
  /// Orchestrator poll period: health sampling, drain-progress checks,
  /// and a rebalancer kick while a wave is draining.
  SimTime poll_period = 1.0;
  /// A wave whose drain has not finished after this long trips the
  /// gate (evacuations are stuck: no capacity, or a partitioned pair).
  SimTime drain_timeout = 600.0;
  /// Post-patch observation window before the wave is declared healthy
  /// (the canary soak).
  SimTime observe_seconds = 10.0;

  /// A server whose window-average latency exceeds this (ms) counts as
  /// violating for that poll interval; 0 disables the latency term
  /// (down-while-hosting-tenants still counts).
  double sla_ms = 0.0;
  /// Health gate: per-wave SLA-violation budget, in server-seconds.
  double max_violation_seconds = 30.0;
  /// Health gate: per-wave failed-migration budget (from the
  /// rebalancer's counters).
  uint64_t max_failed_migrations = 3;

  Status Validate() const;
};

/// Per-wave outcome folded into the final report.
struct UpgradeWaveReport {
  int wave = 0;
  std::vector<uint64_t> servers;
  SimTime drain_seconds = 0.0;
  SimTime patch_seconds = 0.0;
  double violation_seconds = 0.0;
  uint64_t failed_migrations = 0;
  bool gate_tripped = false;
  std::string gate_reason;
};

/// The structured report Start()'s done callback receives.
struct UpgradeReport {
  /// Ok: fleet fully upgraded. Aborted: gate tripped or operator
  /// abort; `rolled_back` says the patched servers were restored.
  Status status;
  bool rolled_back = false;
  int waves_completed = 0;
  std::vector<UpgradeWaveReport> waves;
  /// server id -> version after the run settled.
  std::map<uint64_t, uint32_t> final_versions;
  double total_violation_seconds = 0.0;
  SimTime start_time = 0.0;
  SimTime end_time = 0.0;

  double DurationSeconds() const { return end_time - start_time; }
};

/// Health-sampling helper shared with the fig16 bench's all-at-once
/// baseline: number of servers currently violating — down while still
/// authoritative for at least one tenant, or (sla_ms > 0) running with
/// window-average latency above sla_ms.
int CountViolatingServers(Cluster* cluster, double sla_ms, SimTime now);

/// Upgrades a fleet in waves without ever leaving the latency guard
/// band: each wave is drained (the rebalancer evacuates its tenants as
/// non-urgent work admitted only inside the guard band), patched
/// (crash → SetServerVersion → restart), refilled (undrained, so the
/// rebalancer may place tenants back), and observed. A per-wave health
/// gate — SLA-violation server-seconds and failed-migration budgets —
/// trips into abort-and-rollback: in-flight evacuations are quenched
/// (a handover already in flight is allowed to land), every drained
/// server is undrained, and the servers already patched are rolled
/// back to their original version through the same wave machinery.
class RollingUpgradeOrchestrator {
 public:
  using DoneCallback = sim::Callback<void(const UpgradeReport&)>;

  RollingUpgradeOrchestrator(Cluster* cluster, Rebalancer* rebalancer,
                             UpgradeOptions options);

  RollingUpgradeOrchestrator(const RollingUpgradeOrchestrator&) = delete;
  RollingUpgradeOrchestrator& operator=(const RollingUpgradeOrchestrator&) =
      delete;

  /// Validates options, snapshots the fleet's versions, carves the up
  /// servers into waves (canary first), and begins draining wave 0.
  Status Start(DoneCallback done);

  /// Operator abort: same path as a gate trip — quench evacuations,
  /// undrain, roll back patched servers, report kAborted.
  void Abort(const std::string& reason);

  bool running() const { return running_; }
  const UpgradeReport& report() const { return report_; }

 private:
  enum class Phase { kIdle, kDraining, kPatching, kObserving };

  void Poll(SimTime now);
  void BeginWave(size_t index, SimTime now);
  /// Marks the wave draining and kicks evacuation planning.
  void BeginDrain(SimTime now);
  void BeginRollback(SimTime now);
  /// Gate trip / operator abort entry point.
  void TripGate(const std::string& reason, SimTime now);
  void Finish(Status status, SimTime now);
  /// Every server of the current wave is up, empty, and idle.
  bool WaveDrained() const;
  /// The version the current wave's servers should be patched to.
  uint32_t PatchVersionFor(uint64_t server_id) const;
  void EmitWave(const char* action, const std::string& detail, SimTime now);
  UpgradeWaveReport& wave_report();

  Cluster* cluster_;
  Rebalancer* rebalancer_;
  sim::Simulator* sim_;
  UpgradeOptions options_;
  DoneCallback done_;
  std::unique_ptr<sim::PeriodicTimer> timer_;

  /// Waves still to run (forward upgrade, then reused for rollback).
  std::vector<std::vector<uint64_t>> waves_;
  size_t wave_index_ = 0;
  Phase phase_ = Phase::kIdle;
  bool running_ = false;
  bool rolling_back_ = false;

  /// server id -> version at Start(), the rollback restore point.
  std::map<uint64_t, uint32_t> original_versions_;
  SimTime wave_start_ = 0.0;
  SimTime drain_start_ = 0.0;
  SimTime patch_start_ = 0.0;
  SimTime observe_start_ = 0.0;
  /// Rebalancer failed-migration counter at wave start.
  uint64_t failed_baseline_ = 0;

  UpgradeReport report_;
};

}  // namespace slacker

#endif  // SLACKER_SLACKER_UPGRADE_H_
