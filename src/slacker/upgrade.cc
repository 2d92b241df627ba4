#include "src/slacker/upgrade.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/events.h"

namespace slacker {

Status UpgradeOptions::Validate() const {
  if (target_version == 0) {
    return Status::InvalidArgument("target_version must be nonzero");
  }
  if (wave_size < 1) {
    return Status::InvalidArgument("wave_size must be >= 1");
  }
  if (patch_seconds <= 0.0) {
    return Status::InvalidArgument("patch_seconds must be positive");
  }
  if (poll_period <= 0.0) {
    return Status::InvalidArgument("poll_period must be positive");
  }
  if (drain_timeout <= 0.0) {
    return Status::InvalidArgument("drain_timeout must be positive");
  }
  if (observe_seconds < 0.0) {
    return Status::InvalidArgument("observe_seconds must be >= 0");
  }
  if (sla_ms < 0.0 || max_violation_seconds < 0.0) {
    return Status::InvalidArgument("violation knobs must be >= 0");
  }
  return Status::Ok();
}

int CountViolatingServers(Cluster* cluster, double sla_ms, SimTime now) {
  int violating = 0;
  for (uint64_t id = 0; id < cluster->num_servers(); ++id) {
    if (!cluster->ServerUp(id)) {
      // Down while still authoritative for tenants: every one of their
      // queries is failing, the strongest violation there is.
      if (!cluster->directory()->TenantsOn(id).empty()) ++violating;
      continue;
    }
    if (sla_ms > 0.0 &&
        cluster->server(id)->monitor()->WindowAverageMs(now) > sla_ms) {
      ++violating;
    }
  }
  return violating;
}

RollingUpgradeOrchestrator::RollingUpgradeOrchestrator(
    Cluster* cluster, Rebalancer* rebalancer, UpgradeOptions options)
    : cluster_(cluster),
      rebalancer_(rebalancer),
      sim_(cluster->simulator()),
      options_(std::move(options)) {}

UpgradeWaveReport& RollingUpgradeOrchestrator::wave_report() {
  return report_.waves.back();
}

Status RollingUpgradeOrchestrator::Start(DoneCallback done) {
  SLACKER_RETURN_IF_ERROR(options_.Validate());
  if (running_) return Status::FailedPrecondition("upgrade already running");
  if (rebalancer_ == nullptr || !rebalancer_->running()) {
    return Status::FailedPrecondition(
        "rolling upgrade needs a running rebalancer to evacuate waves");
  }
  const std::vector<uint64_t> up = cluster_->UpServerIds();
  if (up.empty()) return Status::FailedPrecondition("no servers up");
  original_versions_.clear();
  for (uint64_t id = 0; id < cluster_->num_servers(); ++id) {
    original_versions_[id] = cluster_->ServerVersion(id);
  }
  for (uint64_t id : up) {
    if (original_versions_[id] >= options_.target_version) {
      return Status::InvalidArgument(
          "server " + std::to_string(id) + " already at version " +
          std::to_string(original_versions_[id]));
    }
  }

  // Carve the fleet into waves in id order, a single canary first.
  waves_.clear();
  size_t i = 0;
  if (up.size() > 1) {
    waves_.push_back({up[0]});
    i = 1;
  }
  while (i < up.size()) {
    std::vector<uint64_t> wave;
    while (i < up.size() &&
           wave.size() < static_cast<size_t>(options_.wave_size)) {
      wave.push_back(up[i++]);
    }
    waves_.push_back(std::move(wave));
  }

  done_ = std::move(done);
  report_ = UpgradeReport{};
  report_.start_time = sim_->Now();
  running_ = true;
  rolling_back_ = false;
  wave_index_ = 0;
  timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, options_.poll_period, [this](SimTime now) { Poll(now); });
  timer_->Start();
  BeginWave(0, sim_->Now());
  return Status::Ok();
}

void RollingUpgradeOrchestrator::Abort(const std::string& reason) {
  if (!running_ || rolling_back_) return;
  TripGate("operator abort: " + reason, sim_->Now());
}

void RollingUpgradeOrchestrator::BeginWave(size_t index, SimTime now) {
  wave_index_ = index;
  wave_start_ = drain_start_ = now;
  failed_baseline_ = rebalancer_->stats().migrations_failed;

  UpgradeWaveReport wr;
  wr.wave = static_cast<int>(report_.waves.size());
  wr.servers = waves_[index];
  report_.waves.push_back(std::move(wr));
  BeginDrain(now);
}

void RollingUpgradeOrchestrator::BeginDrain(SimTime now) {
  drain_start_ = now;
  for (uint64_t id : waves_[wave_index_]) {
    (void)cluster_->SetDraining(id, true);
  }
  phase_ = Phase::kDraining;
  EmitWave("wave_drain", rolling_back_ ? "rollback wave" : "", now);
  // Kick evacuation planning immediately instead of waiting out the
  // rebalancer period.
  rebalancer_->TickNow();
}

bool RollingUpgradeOrchestrator::WaveDrained() const {
  for (uint64_t id : waves_[wave_index_]) {
    Server* server = cluster_->server(id);
    // A crashed wave member recovers first (its tenants come back with
    // it and still need evacuating).
    if (!server->up()) return false;
    if (!server->tenants()->TenantIds().empty()) return false;
    if (server->controller()->active_jobs() > 0 ||
        server->controller()->active_sessions() > 0) {
      return false;
    }
  }
  return true;
}

uint32_t RollingUpgradeOrchestrator::PatchVersionFor(uint64_t server_id) const {
  if (!rolling_back_) return options_.target_version;
  return original_versions_.at(server_id);
}

void RollingUpgradeOrchestrator::Poll(SimTime now) {
  if (!running_) return;

  // Health sampling: SLA-violation server-seconds, attributed to the
  // wave in progress.
  const double sample =
      CountViolatingServers(cluster_, options_.sla_ms, now) *
      options_.poll_period;
  report_.total_violation_seconds += sample;
  wave_report().violation_seconds += sample;
  wave_report().failed_migrations =
      rebalancer_->stats().migrations_failed - failed_baseline_;

  // Gate checks (forward waves only — a rollback must run to the end,
  // restoring the fleet is strictly better than stopping halfway).
  if (!rolling_back_) {
    if (wave_report().violation_seconds > options_.max_violation_seconds) {
      TripGate("violation budget exceeded: " +
                   std::to_string(wave_report().violation_seconds) + "s > " +
                   std::to_string(options_.max_violation_seconds) + "s",
               now);
      return;
    }
    if (wave_report().failed_migrations > options_.max_failed_migrations) {
      TripGate("failed-migration budget exceeded", now);
      return;
    }
    if (phase_ == Phase::kDraining &&
        now - drain_start_ > options_.drain_timeout) {
      TripGate("drain timeout", now);
      return;
    }
  }

  switch (phase_) {
    case Phase::kIdle:
      return;
    case Phase::kDraining: {
      if (!WaveDrained()) {
        // Keep evacuations flowing: the admission budget throttles the
        // actual concurrency, the kick just removes planning latency.
        rebalancer_->TickNow();
        return;
      }
      wave_report().drain_seconds = now - drain_start_;
      patch_start_ = now;
      for (uint64_t id : waves_[wave_index_]) {
        cluster_->CrashServer(id);  // Empty — nothing to lose.
        (void)cluster_->SetServerVersion(id, PatchVersionFor(id));
        cluster_->RestartServer(id, options_.patch_seconds);
      }
      phase_ = Phase::kPatching;
      EmitWave("wave_patch", "", now);
      return;
    }
    case Phase::kPatching: {
      for (uint64_t id : waves_[wave_index_]) {
        if (!cluster_->ServerUp(id)) return;
      }
      wave_report().patch_seconds = now - patch_start_;
      // Refill: the patched servers may take placements again.
      for (uint64_t id : waves_[wave_index_]) {
        (void)cluster_->SetDraining(id, false);
      }
      observe_start_ = now;
      phase_ = Phase::kObserving;
      EmitWave("wave_observe", "", now);
      return;
    }
    case Phase::kObserving: {
      if (now - observe_start_ < options_.observe_seconds) return;
      EmitWave("wave_done", "", now);
      if (!rolling_back_) ++report_.waves_completed;
      if (wave_index_ + 1 < waves_.size()) {
        BeginWave(wave_index_ + 1, now);
        return;
      }
      if (rolling_back_) {
        Finish(Status::Aborted(report_.status.message().empty()
                                   ? "upgrade aborted"
                                   : report_.status.message()),
               now);
      } else {
        Finish(Status::Ok(), now);
      }
      return;
    }
  }
}

void RollingUpgradeOrchestrator::TripGate(const std::string& reason,
                                          SimTime now) {
  SLACKER_LOG_WARN << "upgrade gate tripped: " << reason;
  wave_report().gate_tripped = true;
  wave_report().gate_reason = reason;
  EmitWave("gate_trip", reason, now);

  // Stop the evacuation machinery: quench in-flight drain migrations
  // (one already in handover is allowed to land) and undrain the fleet.
  rebalancer_->QuenchDrainEvacuations(reason);
  for (uint64_t id = 0; id < cluster_->num_servers(); ++id) {
    (void)cluster_->SetDraining(id, false);
  }
  // Record the abort cause; Finish() may overwrite status but keeps
  // the message via the rollback exit path.
  report_.status = Status::Aborted(reason);
  BeginRollback(now);
}

void RollingUpgradeOrchestrator::BeginRollback(SimTime now) {
  rolling_back_ = true;
  report_.rolled_back = true;
  // Roll back every server that no longer runs its original version,
  // newest patch first, through the same wave machinery (gates off).
  std::vector<uint64_t> patched;
  for (uint64_t id = 0; id < cluster_->num_servers(); ++id) {
    if (cluster_->ServerVersion(id) != original_versions_.at(id)) {
      patched.push_back(id);
    }
  }
  std::reverse(patched.begin(), patched.end());
  waves_.clear();
  size_t i = 0;
  while (i < patched.size()) {
    std::vector<uint64_t> wave;
    while (i < patched.size() &&
           wave.size() < static_cast<size_t>(options_.wave_size)) {
      wave.push_back(patched[i++]);
    }
    waves_.push_back(std::move(wave));
  }
  EmitWave("rollback",
           "rolling back " + std::to_string(patched.size()) + " servers",
           now);
  if (waves_.empty()) {
    Finish(Status::Aborted(report_.status.message()), now);
    return;
  }
  BeginWave(0, now);
}

void RollingUpgradeOrchestrator::Finish(Status status, SimTime now) {
  if (!running_) return;
  running_ = false;
  phase_ = Phase::kIdle;
  if (timer_ != nullptr) timer_->Stop();
  // Safety: no drain flag outlives the run.
  for (uint64_t id = 0; id < cluster_->num_servers(); ++id) {
    (void)cluster_->SetDraining(id, false);
  }
  report_.status = std::move(status);
  report_.end_time = now;
  report_.final_versions.clear();
  for (uint64_t id = 0; id < cluster_->num_servers(); ++id) {
    report_.final_versions[id] = cluster_->ServerVersion(id);
  }
  EmitWave(report_.status.ok() ? "upgrade_done" : "upgrade_aborted",
           report_.status.ToString(), now);
  // The report travels by copy: it arrives even if the orchestrator
  // was destroyed meanwhile.
  sim_->Post(std::move(done_), report_);
}

void RollingUpgradeOrchestrator::EmitWave(const char* action,
                                          const std::string& detail,
                                          SimTime now) {
  (void)now;
  obs::Tracer* tracer = cluster_->tracer();
  if (tracer == nullptr) return;
  obs::UpgradeWaveEvent e;
  if (!report_.waves.empty()) {
    e.wave = wave_report().wave;
    e.servers_in_wave = static_cast<int>(wave_report().servers.size());
    e.violation_seconds = wave_report().violation_seconds;
    e.failed_migrations = wave_report().failed_migrations;
  }
  e.action = action;
  e.detail = detail;
  obs::EmitUpgradeWaveEvent(tracer, e);
}

}  // namespace slacker
