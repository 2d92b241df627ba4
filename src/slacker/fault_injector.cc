#include "src/slacker/fault_injector.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace slacker {
namespace {

/// Phase-watcher poll interval. Fine enough to catch the sub-second
/// handover phase, coarse enough to stay cheap.
constexpr SimTime kPhasePollInterval = 0.002;

}  // namespace

FaultPlan& FaultPlan::Add(FaultSpec spec) {
  specs_.push_back(std::move(spec));
  return *this;
}

FaultPlan& FaultPlan::CrashAt(uint64_t server_id, SimTime at_time,
                              SimTime restart_after) {
  FaultSpec spec;
  spec.kind = FaultKind::kCrash;
  spec.server_id = server_id;
  spec.at_time = at_time;
  spec.restart_after = restart_after;
  return Add(spec);
}

FaultPlan& FaultPlan::CrashAtPhase(uint64_t server_id, uint64_t watch_tenant,
                                   MigrationPhase phase, SimTime restart_after,
                                   SimTime phase_delay) {
  FaultSpec spec;
  spec.kind = FaultKind::kCrash;
  spec.server_id = server_id;
  spec.has_phase_trigger = true;
  spec.watch_tenant = watch_tenant;
  spec.at_phase = phase;
  spec.phase_delay = phase_delay;
  spec.restart_after = restart_after;
  return Add(spec);
}

FaultPlan& FaultPlan::PartitionAt(uint64_t a, uint64_t b, SimTime at_time,
                                  SimTime heal_after) {
  FaultSpec cut;
  cut.kind = FaultKind::kPartition;
  cut.server_id = a;
  cut.peer = b;
  cut.at_time = at_time;
  Add(cut);
  FaultSpec heal;
  heal.kind = FaultKind::kHeal;
  heal.server_id = a;
  heal.peer = b;
  heal.at_time = at_time + heal_after;
  return Add(heal);
}

FaultPlan& FaultPlan::PartitionEvery(uint64_t a, uint64_t b, SimTime first_at,
                                     SimTime every, SimTime hold, int count) {
  FaultSpec cut;
  cut.kind = FaultKind::kPartition;
  cut.server_id = a;
  cut.peer = b;
  cut.at_time = first_at;
  cut.repeat_every = every;
  cut.repeat_count = count;
  Add(cut);
  FaultSpec heal;
  heal.kind = FaultKind::kHeal;
  heal.server_id = a;
  heal.peer = b;
  heal.at_time = first_at + hold;
  heal.repeat_every = every;
  heal.repeat_count = count;
  return Add(heal);
}

FaultPlan& FaultPlan::CrashEvery(uint64_t server_id, SimTime first_at,
                                 SimTime every, SimTime down_for, int count) {
  FaultSpec spec;
  spec.kind = FaultKind::kCrash;
  spec.server_id = server_id;
  spec.at_time = first_at;
  spec.restart_after = down_for;
  spec.repeat_every = every;
  spec.repeat_count = count;
  return Add(spec);
}

FaultPlan& FaultPlan::CrashOnDrainEvacuation(uint64_t server_id,
                                             SimTime restart_after,
                                             SimTime delay) {
  FaultSpec spec;
  spec.kind = FaultKind::kCrash;
  spec.server_id = server_id;
  spec.has_drain_trigger = true;
  spec.watch_server = server_id;
  spec.phase_delay = delay;
  spec.restart_after = restart_after;
  return Add(spec);
}

FaultPlan FaultPlan::RandomCrashes(int count, int num_servers,
                                   SimTime horizon, SimTime min_down,
                                   SimTime max_down, uint64_t seed) {
  FaultPlan plan;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const uint64_t server =
        rng.NextBelow(static_cast<uint64_t>(num_servers));
    const SimTime when = rng.Uniform(0.0, horizon);
    const SimTime down = rng.Uniform(min_down, max_down);
    plan.CrashAt(server, when, down);
  }
  return plan;
}

FaultInjector::FaultInjector(Cluster* cluster, FaultPlan plan)
    : cluster_(cluster),
      sim_(cluster->simulator()),
      plan_(std::move(plan)),
      job_seen_(plan_.specs().size(), false) {}

void FaultInjector::Arm() {
  for (size_t i = 0; i < plan_.specs().size(); ++i) {
    const FaultSpec& spec = plan_.specs()[i];
    if (spec.has_phase_trigger) {
      WatchPhase(i);
    } else if (spec.has_drain_trigger) {
      WatchDrain(i);
    } else if (spec.at_time >= 0.0) {
      ScheduleTimed(i, spec.at_time, std::max(spec.repeat_count, 1));
    } else {
      Fire(spec);
    }
  }
}

void FaultInjector::ScheduleTimed(size_t index, SimTime fire_time,
                                  int firings_left) {
  const SimTime delay = std::max(fire_time - sim_->Now(), 0.0);
  sim_->After(delay, lifetime_.Guard([this, index, fire_time, firings_left] {
    const FaultSpec& spec = plan_.specs()[index];
    Fire(spec);
    if (firings_left > 1 && spec.repeat_every > 0.0) {
      ScheduleTimed(index, fire_time + spec.repeat_every, firings_left - 1);
    }
  }));
}

void FaultInjector::WatchDrain(size_t index) {
  sim_->After(kPhasePollInterval, lifetime_.Guard([this, index] {
    const FaultSpec& spec = plan_.specs()[index];
    Server* server = cluster_->server(spec.watch_server);
    // Evacuation underway: the server is in drain mode and has at least
    // one outgoing migration job.
    if (server->up() && server->draining() &&
        server->controller()->active_jobs() > 0) {
      FireAfterPhaseDelay(index);
      return;
    }
    WatchDrain(index);
  }));
}

void FaultInjector::WatchPhase(size_t index) {
  sim_->After(kPhasePollInterval, lifetime_.Guard([this, index] {
    const FaultSpec& spec = plan_.specs()[index];
    MigrationJob* job = cluster_->ActiveJob(spec.watch_tenant);
    if (job == nullptr) {
      if (!job_seen_[index]) {
        WatchPhase(index);  // Migration not started yet.
        return;
      }
      // The watched job resolved (or died) before reaching the phase.
      // Fire anyway: a fault landing just after the migration settled
      // is a scenario the cluster must survive too.
      Fire(spec);
      return;
    }
    job_seen_[index] = true;
    if (static_cast<int>(job->phase()) >= static_cast<int>(spec.at_phase)) {
      FireAfterPhaseDelay(index);
      return;
    }
    WatchPhase(index);
  }));
}

void FaultInjector::FireAfterPhaseDelay(size_t index) {
  const FaultSpec& spec = plan_.specs()[index];
  if (spec.phase_delay <= 0.0) {
    Fire(spec);
    return;
  }
  sim_->After(spec.phase_delay, lifetime_.Guard([this, index] {
    Fire(plan_.specs()[index]);
  }));
}

void FaultInjector::Fire(const FaultSpec& spec) {
  ++faults_fired_;
  switch (spec.kind) {
    case FaultKind::kCrash:
      SLACKER_LOG_WARN << "fault injector: crashing server "
                       << spec.server_id;
      cluster_->CrashServer(spec.server_id);
      if (spec.restart_after > 0.0) {
        cluster_->RestartServer(spec.server_id, spec.restart_after);
      }
      return;
    case FaultKind::kRestart:
      cluster_->RestartServer(spec.server_id, 0.0);
      return;
    case FaultKind::kPartition:
      SLACKER_LOG_WARN << "fault injector: partitioning " << spec.server_id
                       << " <-> " << spec.peer;
      cluster_->SetPartitioned(spec.server_id, spec.peer, true);
      return;
    case FaultKind::kHeal:
      cluster_->SetPartitioned(spec.server_id, spec.peer, false);
      return;
  }
}

}  // namespace slacker
