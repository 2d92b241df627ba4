#include "src/slacker/migration_supervisor.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/events.h"

namespace slacker {
namespace {

/// Retry backoff shape (SupervisorOptions): each attempt doubles the
/// wait, capped at 30 s, scaled by a factor drawn from [0.8, 1.2].
constexpr double kBackoffMultiplier = 2.0;
constexpr SimTime kMaxBackoff = 30.0;
constexpr double kJitter = 0.2;

}  // namespace

Status SupervisorOptions::Validate() const {
  if (max_attempts <= 0) {
    return Status::InvalidArgument("max_attempts must be positive");
  }
  if (initial_backoff < 0.0) {
    return Status::InvalidArgument("initial_backoff must be >= 0");
  }
  if (initial_backoff > kMaxBackoff) {
    return Status::InvalidArgument("initial_backoff must be <= 30 s");
  }
  if (attempt_timeout < 0.0) {
    return Status::InvalidArgument("attempt_timeout must be >= 0");
  }
  return Status::Ok();
}

MigrationSupervisor::MigrationSupervisor(Cluster* cluster, uint64_t tenant_id,
                                         uint64_t target_server,
                                         MigrationOptions migration,
                                         SupervisorOptions options,
                                         DoneCallback done)
    : cluster_(cluster),
      sim_(cluster->simulator()),
      tenant_id_(tenant_id),
      target_server_(target_server),
      migration_(std::move(migration)),
      options_(options),
      done_(std::move(done)),
      rng_(options.seed ^ tenant_id) {
  tracer_ = cluster->tracer();
  if (tracer_ != nullptr) track_ = obs::SupervisorTrack(tenant_id);
  report_.tenant_id = tenant_id;
  report_.target_server = target_server;
  report_.mode = migration_.mode;
}

Status MigrationSupervisor::Start() {
  SLACKER_RETURN_IF_ERROR(options_.Validate());
  SLACKER_RETURN_IF_ERROR(migration_.Validate());
  report_.start_time = sim_->Now();
  LaunchAttempt();
  return Status::Ok();
}

bool MigrationSupervisor::IsTransient(const Status& status) {
  switch (status.code()) {
    case StatusCode::kAborted:           // Watchdog / cancel / lost peer.
    case StatusCode::kUnavailable:       // Crashed server (may restart).
    case StatusCode::kCorruption:        // Digest mismatch / NACK budget —
                                         // retry streams from scratch.
    case StatusCode::kFailedPrecondition:  // e.g. tenant already migrating.
      return true;
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kInternal:
    case StatusCode::kTooLateToCancel:
      // Permanent: retrying cannot change the outcome. Spelled out (no
      // default:) so -Wswitch forces a transient-or-permanent decision
      // for every new status code.
      return false;
  }
  return false;  // Out-of-range code (corrupt wire value).
}

void MigrationSupervisor::Quench(const std::string& reason) {
  if (finished_ || quenched_) return;
  quenched_ = true;
  if (attempt_inflight_) {
    // The attempt's done callback resolves it; OnAttemptDone sees
    // quenched_ and finishes instead of retrying. kTooLateToCancel /
    // kNotFound mean the attempt is resolving on its own — fine.
    (void)cluster_->CancelMigration(tenant_id_, reason);
  } else {
    // Waiting out a backoff: no further attempt may launch.
    FinishWith(Status::Aborted("supervisor quenched: " + reason));
  }
}

void MigrationSupervisor::LaunchAttempt() {
  if (finished_ || quenched_) return;
  // The previous attempt may have died after the directory switched (a
  // crash can eat the commit echo): if the tenant already lives on the
  // target, the migration has converged — re-migrating would fail with
  // "same server" and wrongly mark the whole operation failed.
  const Result<uint64_t> authority = cluster_->directory()->Lookup(tenant_id_);
  if (authority.ok() && *authority == target_server_) {
    FinishWith(Status::Ok());
    return;
  }

  ++attempts_made_;
  attempt_start_ = sim_->Now();
  attempt_inflight_ = true;
  const uint64_t generation = ++attempt_generation_;
  attempt_span_ = obs::TraceSpan(
      tracer_, track_, "attempt " + std::to_string(attempts_made_),
      "supervisor");
  attempt_span_.AddArg("attempt", attempts_made_);

  MigrationOptions attempt_options = migration_;
  if (disable_resume_) attempt_options.allow_resume = false;

  const Status started = cluster_->StartMigration(
      tenant_id_, target_server_, attempt_options,
      lifetime_.Guard([this, generation](const MigrationReport& job_report) {
        OnAttemptDone(generation, job_report);
      }));
  if (!started.ok()) {
    // Synchronous refusal (source/target down, tenant unknown...):
    // resolve the attempt immediately with an empty job report.
    attempt_inflight_ = false;
    MigrationReport synthesized;
    synthesized.status = started;
    synthesized.tenant_id = tenant_id_;
    synthesized.target_server = target_server_;
    OnAttemptDone(generation, synthesized);
    return;
  }
  ArmAttemptTimeout();
}

void MigrationSupervisor::ArmAttemptTimeout() {
  if (options_.attempt_timeout <= 0.0) return;
  const uint64_t generation = attempt_generation_;
  sim_->After(options_.attempt_timeout,
              lifetime_.Guard([this, generation] {
                if (finished_ || !attempt_inflight_) return;
                if (generation != attempt_generation_) return;
                // The job never reported back — its server probably died
                // and took the job (and its done callback) with it. Kill
                // whatever remains and classify as retryable.
                SLACKER_LOG_WARN << "supervisor attempt " << attempts_made_
                                 << " for tenant " << tenant_id_
                                 << " timed out; synthesizing failure";
                (void)cluster_->CancelMigration(tenant_id_,
                                               "supervisor attempt timeout");
                MigrationReport synthesized;
                synthesized.status = Status::Unavailable(
                    "attempt timed out; migration job unresponsive");
                synthesized.tenant_id = tenant_id_;
                synthesized.target_server = target_server_;
                OnAttemptDone(generation, synthesized);
              }));
}

void MigrationSupervisor::OnAttemptDone(uint64_t generation,
                                        const MigrationReport& job_report) {
  if (finished_ || generation != attempt_generation_) return;
  // Resolve the generation so a late job callback (e.g. the cancel
  // issued by the timeout path completing) is ignored.
  ++attempt_generation_;
  attempt_inflight_ = false;
  attempt_span_.AddNote("status", job_report.status.ToString());
  attempt_span_.End();

  // Fold transfer metrics into the cross-attempt totals.
  if (job_report.source_server != 0) {
    report_.source_server = job_report.source_server;
  }
  if (!job_report.throttle_name.empty()) {
    report_.throttle_name = job_report.throttle_name;
  }
  report_.snapshot_bytes += job_report.snapshot_bytes;
  report_.delta_bytes += job_report.delta_bytes;
  report_.delta_rounds += job_report.delta_rounds;
  report_.resumed_bytes += job_report.resumed_bytes;
  report_.chunks_retransmitted += job_report.chunks_retransmitted;
  report_.negotiate_seconds += job_report.negotiate_seconds;
  report_.snapshot_seconds += job_report.snapshot_seconds;
  report_.prepare_seconds += job_report.prepare_seconds;
  report_.delta_seconds += job_report.delta_seconds;
  report_.handover_seconds += job_report.handover_seconds;
  RecordAttempt(job_report.status, attempt_start_, job_report.resumed_bytes);

  if (job_report.status.ok()) {
    report_.downtime_ms = job_report.downtime_ms;
    report_.digest_match = job_report.digest_match;
    FinishWith(Status::Ok());
    return;
  }
  if (quenched_) {
    FinishWith(job_report.status);
    return;
  }
  if (job_report.status.code() == StatusCode::kCorruption) {
    disable_resume_ = true;
  }
  if (!IsTransient(job_report.status)) {
    SLACKER_LOG_WARN << "tenant " << tenant_id_ << " migration failed "
                     << "permanently: " << job_report.status.ToString();
    FinishWith(job_report.status);
    return;
  }
  if (attempts_made_ >= options_.max_attempts) {
    SLACKER_LOG_WARN << "tenant " << tenant_id_ << " migration failed after "
                     << attempts_made_ << " attempts: "
                     << job_report.status.ToString();
    FinishWith(job_report.status);
    return;
  }
  ScheduleRetry(job_report.status);
}

void MigrationSupervisor::RecordAttempt(const Status& status,
                                        SimTime start_time,
                                        uint64_t resumed_bytes) {
  MigrationAttempt attempt;
  attempt.attempt = attempts_made_;
  attempt.status = status;
  attempt.start_time = start_time;
  attempt.end_time = sim_->Now();
  attempt.resumed_bytes = resumed_bytes;
  report_.attempts.push_back(std::move(attempt));
}

void MigrationSupervisor::ScheduleRetry(const Status& status) {
  double backoff = options_.initial_backoff;
  for (int i = 1; i < attempts_made_; ++i) {
    backoff *= kBackoffMultiplier;
  }
  backoff = std::min(backoff, kMaxBackoff);
  backoff *= rng_.Uniform(1.0 - kJitter, 1.0 + kJitter);
  if (tracer_ != nullptr) {
    obs::SupervisorRetry retry;
    retry.tenant_id = tenant_id_;
    retry.attempt = attempts_made_;
    retry.backoff_seconds = backoff;
    retry.status = status.ToString();
    obs::EmitSupervisorRetry(tracer_, retry);
  }
  sim_->After(backoff, lifetime_.Guard([this] { LaunchAttempt(); }));
}

void MigrationSupervisor::FinishWith(Status status) {
  if (finished_) return;
  finished_ = true;
  attempt_span_.End();
  report_.status = std::move(status);
  report_.end_time = sim_->Now();
  report_.attempt_count = std::max(attempts_made_, 1);
  sim_->Post(std::move(done_), report_);
}

}  // namespace slacker
