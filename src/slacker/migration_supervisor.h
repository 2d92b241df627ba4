#ifndef SLACKER_SLACKER_MIGRATION_SUPERVISOR_H_
#define SLACKER_SLACKER_MIGRATION_SUPERVISOR_H_

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/sim/callback.h"
#include "src/sim/lifetime.h"
#include "src/slacker/cluster.h"
#include "src/slacker/migration.h"
#include "src/slacker/options.h"

namespace slacker {

/// Retry policy for a supervised migration.
struct SupervisorOptions {
  /// Attempts before giving up (first try included).
  int max_attempts = 5;
  /// Backoff before attempt n+1 is initial * 2^(n-1), capped at 30 s,
  /// with +-20% jitter applied multiplicatively so a fleet of
  /// supervisors retrying the same dead target doesn't thunder.
  SimTime initial_backoff = 1.0;
  uint64_t seed = 0x5e9e5eedULL;
  /// Hard ceiling per attempt. A source crash destroys the job without
  /// its done callback ever firing; after this long the supervisor
  /// cancels whatever is left and synthesizes a transient failure.
  /// 0 disables (rely on the job's own watchdog).
  SimTime attempt_timeout = 0.0;

  Status Validate() const;
};

/// Drives one migration to completion across failures: classifies each
/// attempt's outcome as transient (crashes, timeouts, corruption — retry
/// with exponential backoff) or permanent (bad arguments, missing
/// tenant — fail fast), re-launches until the tenant lands on the
/// target or the attempt budget runs out, and folds every attempt into
/// one enriched MigrationReport. Resume negotiation makes retries cheap:
/// chunks durably staged by a failed attempt are not re-streamed.
class MigrationSupervisor {
 public:
  using DoneCallback = sim::Callback<void(const MigrationReport&)>;

  MigrationSupervisor(Cluster* cluster, uint64_t tenant_id,
                      uint64_t target_server, MigrationOptions migration,
                      SupervisorOptions options, DoneCallback done);

  MigrationSupervisor(const MigrationSupervisor&) = delete;
  MigrationSupervisor& operator=(const MigrationSupervisor&) = delete;

  /// Validates options and launches the first attempt.
  Status Start();

  /// Stops supervising: cancels the in-flight attempt (if any) and
  /// suppresses further retries, so the supervisor resolves with the
  /// attempt's failure instead of relaunching. If the attempt is
  /// already past the point of no return (kTooLateToCancel) the
  /// handover lands and the supervisor reports success. Used by the
  /// upgrade orchestrator's abort path to call off drain evacuations.
  void Quench(const std::string& reason);

  bool finished() const { return finished_; }
  const MigrationReport& report() const { return report_; }

  /// True for failures worth retrying: the cluster may heal (crashed
  /// peer restarts, watchdog-aborted attempt finds a faster path next
  /// time). Permanent failures (missing tenant, bad arguments) repeat
  /// identically on every retry.
  static bool IsTransient(const Status& status);

 private:
  void LaunchAttempt();
  void ArmAttemptTimeout();
  /// Handles one attempt's outcome; `from_job` reports carry transfer
  /// metrics, synthesized ones (sync start error, timeout) do not.
  void OnAttemptDone(uint64_t generation, const MigrationReport& job_report);
  void RecordAttempt(const Status& status, SimTime start_time,
                     uint64_t resumed_bytes);
  void ScheduleRetry(const Status& status);
  void FinishWith(Status status);

  Cluster* cluster_;
  sim::Simulator* sim_;
  uint64_t tenant_id_;
  uint64_t target_server_;
  MigrationOptions migration_;
  SupervisorOptions options_;
  DoneCallback done_;
  Rng rng_;

  /// Inert when the cluster has no tracer installed.
  obs::Tracer* tracer_ = nullptr;
  std::string track_;
  obs::TraceSpan attempt_span_;

  int attempts_made_ = 0;
  /// Bumped when an attempt is resolved (done fired or timeout
  /// synthesized); stale job callbacks compare against it and bail.
  uint64_t attempt_generation_ = 0;
  bool attempt_inflight_ = false;
  SimTime attempt_start_ = 0.0;
  /// Set after a kCorruption failure: the staged chunks are suspect, so
  /// the next attempt streams from scratch.
  bool disable_resume_ = false;
  bool quenched_ = false;
  bool finished_ = false;

  MigrationReport report_;
  /// See MigrationJob::lifetime_.
  sim::Lifetime lifetime_;
};

}  // namespace slacker

#endif  // SLACKER_SLACKER_MIGRATION_SUPERVISOR_H_
