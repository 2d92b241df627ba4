#include "src/slacker/rebalancer.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/forecast/trough_scheduler.h"
#include "src/obs/events.h"

namespace slacker {
namespace {

/// Settle delay before the re-plan that follows a completed handover —
/// long enough for the post-migration landscape to register some
/// utilization, short enough to keep converging well inside one period.
constexpr SimTime kReplanDelay = 1.0;

/// Defer a plan while an involved server's sliding-window latency is
/// within this fraction of the PID setpoint (see
/// control::LatencyMonitor::WithinGuardBand). Relief plans guard the
/// *target* only — the source is overloaded by definition, and the
/// per-migration PID throttle already protects it; consolidation and
/// drain-evacuation plans are non-urgent work and guard both ends.
constexpr double kGuardBandFraction = 0.2;

/// Data volume a plan would copy, looked up from the tick's stats (the
/// trough scheduler prices candidate start times with it).
uint64_t PlanDataBytes(const std::vector<ServerLoadStat>& fleet,
                       const MigrationPlan& plan) {
  for (const ServerLoadStat& s : fleet) {
    if (s.server_id != plan.source_server) continue;
    for (const TenantLoadStat& t : s.tenants) {
      if (t.tenant_id == plan.tenant_id) return t.data_bytes;
    }
  }
  return 0;
}

}  // namespace

Status RebalancerOptions::Validate() const {
  if (period <= 0.0) {
    return Status::InvalidArgument("period must be positive");
  }
  if (max_concurrent_per_source < 1 || max_concurrent_per_target < 1 ||
      max_concurrent_total < 1) {
    return Status::InvalidArgument("concurrency budgets must be >= 1");
  }
  SLACKER_RETURN_IF_ERROR(placement.Validate());
  SLACKER_RETURN_IF_ERROR(migration.Validate());
  SLACKER_RETURN_IF_ERROR(supervisor.Validate());
  return Status::Ok();
}

Rebalancer::Rebalancer(Cluster* cluster, RebalancerOptions options)
    : cluster_(cluster),
      sim_(cluster->simulator()),
      options_(std::move(options)),
      advisor_(options_.placement) {}

Status Rebalancer::Start() {
  SLACKER_RETURN_IF_ERROR(options_.Validate());
  if (running_) return Status::FailedPrecondition("already running");
  // Fresh utilization epoch and ops baseline, so the first tick (one
  // period from now) observes exactly one period of load.
  for (uint64_t id : cluster_->UpServerIds()) {
    cluster_->server(id)->disk()->ResetStats();
  }
  (void)CollectClusterStats(cluster_, &ops_baseline_);
  timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, options_.period, [this](SimTime now) { Tick(now); });
  timer_->Start();
  running_ = true;
  return Status::Ok();
}

void Rebalancer::Stop() {
  running_ = false;
  if (timer_ != nullptr) timer_->Stop();
}

void Rebalancer::TickNow() { Tick(sim_->Now()); }

bool Rebalancer::TenantBusy(uint64_t tenant_id) const {
  for (const auto& m : inflight_) {
    if (m.tenant_id == tenant_id) return true;
  }
  // Also respect migrations started outside this loop (an operator's
  // manual move): the directory stays consistent either way, but
  // double-migrating a tenant is a guaranteed failed attempt.
  return cluster_->ActiveJob(tenant_id) != nullptr;
}

int Rebalancer::InflightFrom(uint64_t server_id) const {
  int n = 0;
  for (const auto& m : inflight_) {
    if (m.source_server == server_id) ++n;
  }
  return n;
}

int Rebalancer::InflightInto(uint64_t server_id) const {
  int n = 0;
  for (const auto& m : inflight_) {
    if (m.target_server == server_id) ++n;
  }
  return n;
}

bool Rebalancer::Admit(const MigrationPlan& plan, bool non_urgent,
                       SimTime now, std::string* reason) {
  if (TenantBusy(plan.tenant_id)) {
    ++stats_.skipped_busy;
    *reason = "tenant-busy";
    return false;
  }
  if (inflight_.size() >=
      static_cast<size_t>(options_.max_concurrent_total)) {
    ++stats_.deferred_budget;
    *reason = "budget:total";
    return false;
  }
  if (InflightFrom(plan.source_server) >= options_.max_concurrent_per_source) {
    ++stats_.deferred_budget;
    *reason = "budget:source";
    return false;
  }
  if (InflightInto(plan.target_server) >= options_.max_concurrent_per_target) {
    ++stats_.deferred_budget;
    *reason = "budget:target";
    return false;
  }
  if (!cluster_->ServerUp(plan.target_server)) {
    *reason = "target-down";
    return false;
  }
  // Latency guard band: migrating onto a server that is already close
  // to the setpoint would spend slack it does not have. Relief sources
  // are exempt — they are over threshold by definition, and the
  // per-migration PID throttle is what protects them.
  const double setpoint = options_.migration.pid.setpoint;
  control::LatencyMonitor* target_monitor =
      cluster_->server(plan.target_server)->monitor();
  if (target_monitor->WithinGuardBand(now, setpoint, kGuardBandFraction)) {
    ++stats_.deferred_guard_band;
    *reason = "guard-band";
    return false;
  }
  if (non_urgent) {
    // Consolidation and drain evacuations are elective: admit them only
    // while *both* ends have latency slack to spare.
    control::LatencyMonitor* source_monitor =
        cluster_->server(plan.source_server)->monitor();
    if (source_monitor->WithinGuardBand(now, setpoint, kGuardBandFraction)) {
      ++stats_.deferred_guard_band;
      *reason = "guard-band";
      return false;
    }
  }
  *reason = "admitted";
  return true;
}

void Rebalancer::QuenchDrainEvacuations(const std::string& reason) {
  for (auto& m : inflight_) {
    if (m.drain) m.supervisor->Quench(reason);
  }
}

void Rebalancer::Launch(const MigrationPlan& plan, const char* kind,
                        bool drain) {
  InflightMigration entry;
  entry.tenant_id = plan.tenant_id;
  entry.source_server = plan.source_server;
  entry.target_server = plan.target_server;
  entry.drain = drain;
  entry.supervisor = std::make_unique<MigrationSupervisor>(
      cluster_, plan.tenant_id, plan.target_server, options_.migration,
      options_.supervisor,
      lifetime_.Guard([this, tenant = plan.tenant_id](
                          const MigrationReport& report) {
        OnMigrationDone(tenant, report);
      }));
  const Status started = entry.supervisor->Start();
  if (!started.ok()) {
    SLACKER_LOG_WARN << "rebalancer could not start migration of tenant "
                     << plan.tenant_id << ": " << started.ToString();
    ++stats_.migrations_failed;
    return;
  }
  ++stats_.plans_admitted;
  if (std::strcmp(kind, "relief") == 0) ++stats_.relief_admitted;
  // The work launched: drop any pinned trough schedule so a future
  // plan for the same tenant is re-priced fresh.
  if (options_.trough_scheduler != nullptr) {
    options_.trough_scheduler->Complete(plan.tenant_id);
  }
  inflight_.push_back(std::move(entry));
  stats_.max_inflight_observed =
      std::max(stats_.max_inflight_observed, inflight_.size());
}

void Rebalancer::OnMigrationDone(uint64_t tenant_id,
                                 const MigrationReport& report) {
  if (report.status.ok()) {
    ++stats_.migrations_ok;
  } else {
    ++stats_.migrations_failed;
    SLACKER_LOG_WARN << "rebalancer migration of tenant " << tenant_id
                     << " failed: " << report.status.ToString();
  }
  for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
    if (it->tenant_id == tenant_id) {
      inflight_.erase(it);
      break;
    }
  }
  // Each handover changes the landscape (and frees budget): re-plan
  // promptly rather than waiting out the period, after a short settle
  // delay so the new placement registers some utilization.
  if (!running_) return;
  sim_->After(kReplanDelay, lifetime_.Guard([this] {
                if (running_) Tick(sim_->Now());
              }));
}

void Rebalancer::Tick(SimTime now) {
  ++stats_.ticks;
  const std::vector<ServerLoadStat> all =
      CollectClusterStats(cluster_, &ops_baseline_);
  // Plan over the live fleet only, and start a fresh utilization epoch
  // so the next tick again observes one period.
  const std::vector<uint64_t> up = cluster_->UpServerIds();
  std::vector<ServerLoadStat> fleet;
  fleet.reserve(up.size());
  for (uint64_t id : up) {
    fleet.push_back(all[id]);
    cluster_->server(id)->disk()->ResetStats();
  }

  int overloaded = 0;
  for (const auto& s : fleet) {
    if (s.utilization > options_.placement.overload_threshold) ++overloaded;
  }
  stats_.last_overloaded = overloaded;

  bool any_draining = false;
  for (const auto& s : fleet) {
    if (s.draining) any_draining = true;
  }

  // Relief is urgent and always planned; drain evacuations run
  // alongside it (the admission budget arbitrates); consolidation only
  // when the fleet is calm and nothing is draining — refilling servers
  // mid-upgrade would fight the wave machinery.
  struct KindedPlan {
    MigrationPlan plan;
    const char* kind;
    bool non_urgent;
    bool drain;
  };
  std::vector<KindedPlan> plans;
  for (MigrationPlan& p : advisor_.PlanRelief(fleet)) {
    plans.push_back({std::move(p), "relief", false, false});
  }
  if (any_draining) {
    for (MigrationPlan& p : advisor_.PlanDrain(fleet)) {
      plans.push_back({std::move(p), "drain", true, true});
    }
  }
  if (plans.empty() && !any_draining && overloaded == 0 &&
      inflight_.empty() && options_.consolidate) {
    for (MigrationPlan& p : advisor_.PlanConsolidation(fleet)) {
      plans.push_back({std::move(p), "consolidation", true, false});
    }
  }
  stats_.plans_considered += plans.size();

  obs::Tracer* tracer = cluster_->tracer();
  int admitted = 0;
  int deferred = 0;
  if (options_.trough_scheduler != nullptr) {
    options_.trough_scheduler->Prune(now);
  }
  for (const KindedPlan& kp : plans) {
    const MigrationPlan& plan = kp.plan;
    std::string reason;
    bool go = true;
    // Non-urgent work is first offered to the trough scheduler, which
    // may hold it for a predicted trough (under a hard deadline); a
    // held plan never reaches the admission controller this tick.
    // Relief bypasses scheduling entirely — it is urgent by definition.
    if (kp.non_urgent && options_.trough_scheduler != nullptr) {
      forecast::WorkRequest work;
      work.key = plan.tenant_id;
      work.tenant_id = plan.tenant_id;
      work.source_server = plan.source_server;
      work.target_server = plan.target_server;
      work.data_bytes = PlanDataBytes(fleet, plan);
      work.kind = kp.kind;
      work.urgent = false;
      const forecast::ScheduleDecision verdict =
          options_.trough_scheduler->Decide(work, now);
      if (!verdict.run_now) {
        go = false;
        reason = "trough-wait";
        ++stats_.deferred_trough;
      } else if (verdict.reason == "trough-start") {
        ++stats_.trough_released;
      } else if (verdict.reason == "deadline") {
        ++stats_.deadline_forced;
      }
    }
    if (go) go = Admit(plan, kp.non_urgent, now, &reason);
    obs::RebalanceDecision decision;
    decision.tenant_id = plan.tenant_id;
    decision.source_server = plan.source_server;
    decision.target_server = plan.target_server;
    decision.admitted = go;
    decision.kind = kp.kind;
    decision.reason = reason;
    obs::EmitRebalanceDecision(tracer, decision);
    if (go) {
      Launch(plan, kp.kind, kp.drain);
      if (kp.drain) ++stats_.drain_admitted;
      ++admitted;
    } else {
      ++deferred;
    }
  }

  obs::RebalanceTick tick;
  tick.overloaded_servers = overloaded;
  tick.plans = static_cast<int>(plans.size());
  tick.admitted = admitted;
  tick.deferred = deferred;
  tick.inflight = static_cast<int>(inflight_.size());
  obs::EmitRebalanceTick(tracer, tick);
}

}  // namespace slacker
