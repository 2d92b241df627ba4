#ifndef SLACKER_SLACKER_FAULT_INJECTOR_H_
#define SLACKER_SLACKER_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/sim/lifetime.h"
#include "src/sim/simulator.h"
#include "src/slacker/cluster.h"
#include "src/slacker/options.h"

namespace slacker {

enum class FaultKind {
  /// CrashServer(server_id); optionally RestartServer after
  /// restart_after seconds.
  kCrash,
  /// RestartServer(server_id) at the trigger time.
  kRestart,
  /// Cut the link between server_id and peer.
  kPartition,
  /// Heal the link between server_id and peer.
  kHeal,
};

/// One scheduled fault. Triggered either at an absolute simulation time
/// (at_time >= 0), when a watched tenant's migration reaches a phase
/// (has_phase_trigger), or when a watched server begins evacuating in
/// drain mode (has_drain_trigger) — the injector polls and fires
/// `phase_delay` seconds after the condition is first observed.
struct FaultSpec {
  FaultKind kind = FaultKind::kCrash;
  uint64_t server_id = 0;
  /// kPartition / kHeal: the other end of the link.
  uint64_t peer = 0;

  /// Absolute trigger time; negative = not time-triggered.
  SimTime at_time = -1.0;

  bool has_phase_trigger = false;
  uint64_t watch_tenant = 0;
  MigrationPhase at_phase = MigrationPhase::kSnapshot;
  /// Extra delay between observing the phase (or drain evacuation) and
  /// firing (e.g. "2 s into the snapshot").
  SimTime phase_delay = 0.0;

  /// Drain trigger: fires once `watch_server` is draining AND has at
  /// least one outgoing migration job — i.e. mid-evacuation during an
  /// upgrade wave (DESIGN.md §12).
  bool has_drain_trigger = false;
  uint64_t watch_server = 0;

  /// Time-triggered specs only: re-fire every `repeat_every` seconds
  /// until `repeat_count` total firings ("partition for N ms every
  /// M ms"). repeat_every <= 0 or repeat_count <= 1 means fire once.
  SimTime repeat_every = 0.0;
  int repeat_count = 1;

  /// kCrash: schedule recovery this long after the crash (0 = stay
  /// down until an explicit kRestart spec).
  SimTime restart_after = 0.0;
};

/// A composable schedule of faults.
class FaultPlan {
 public:
  FaultPlan& Add(FaultSpec spec);
  FaultPlan& CrashAt(uint64_t server_id, SimTime at_time,
                     SimTime restart_after = 0.0);
  /// Crash `server_id` when tenant `watch_tenant`'s migration reaches
  /// `phase` (plus `phase_delay`), restarting after `restart_after`.
  FaultPlan& CrashAtPhase(uint64_t server_id, uint64_t watch_tenant,
                          MigrationPhase phase, SimTime restart_after = 0.0,
                          SimTime phase_delay = 0.0);
  FaultPlan& PartitionAt(uint64_t a, uint64_t b, SimTime at_time,  // NOLINT(slacker-test-only): seam — a partition no shipped run schedules
                         SimTime heal_after);
  /// Periodic partition: cut a<->b at `first_at`, heal `hold` seconds
  /// later, and repeat the pair every `every` seconds for `count`
  /// cycles ("partition for N ms every M ms").
  FaultPlan& PartitionEvery(uint64_t a, uint64_t b, SimTime first_at,  // NOLINT(slacker-test-only): seam — periodic partitions for the soak
                            SimTime every, SimTime hold, int count);
  /// Periodic crash/recover cycle on one server: first crash at
  /// `first_at`, back up `down_for` later, repeated every `every`
  /// seconds for `count` cycles.
  FaultPlan& CrashEvery(uint64_t server_id, SimTime first_at, SimTime every,  // NOLINT(slacker-test-only): seam — periodic crashes for the soak
                        SimTime down_for, int count);
  /// Crash `server_id` once it is draining and actively evacuating
  /// (plus `delay`), restarting after `restart_after` — the canary-
  /// crash chaos scenario for rolling upgrades.
  FaultPlan& CrashOnDrainEvacuation(uint64_t server_id,  // NOLINT(slacker-test-only): seam — a canary crash mid-upgrade
                                    SimTime restart_after = 0.0,
                                    SimTime delay = 0.0);

  /// `count` crash/restart pairs at Uniform times in [0, horizon), each
  /// down for Uniform [min_down, max_down) seconds, on servers drawn
  /// from [0, num_servers). Deterministic in `seed`.
  static FaultPlan RandomCrashes(int count, int num_servers, SimTime horizon,  // NOLINT(slacker-test-only): seam — seeded crash storms for the soak
                                 SimTime min_down, SimTime max_down,
                                 uint64_t seed);

  const std::vector<FaultSpec>& specs() const { return specs_; }

 private:
  std::vector<FaultSpec> specs_;
};

/// Executes a FaultPlan against a Cluster: time triggers become plain
/// simulator events; phase triggers poll the watched tenant's active
/// migration job every few milliseconds. A phase watcher that sees the
/// job disappear before reaching its phase fires anyway — the fault
/// lands just after the migration resolved, which is itself a scenario
/// worth surviving.
class FaultInjector {
 public:
  FaultInjector(Cluster* cluster, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every spec. Call once before Simulator::Run.
  void Arm();

  int faults_fired() const { return faults_fired_; }

 private:
  void Fire(const FaultSpec& spec);
  void WatchPhase(size_t index);
  void WatchDrain(size_t index);
  /// Schedules firing `index` at `fire_time`, then re-arms it
  /// repeat_every later while firings remain.
  void ScheduleTimed(size_t index, SimTime fire_time, int firings_left);
  /// Fires spec `index` now, or phase_delay later when that is positive.
  void FireAfterPhaseDelay(size_t index);

  Cluster* cluster_;
  sim::Simulator* sim_;
  FaultPlan plan_;
  /// Per spec: the watched job has been observed at least once.
  std::vector<bool> job_seen_;
  int faults_fired_ = 0;
  /// Guards the scheduled fault callbacks against a destroyed injector.
  sim::Lifetime lifetime_;
};

}  // namespace slacker

#endif  // SLACKER_SLACKER_FAULT_INJECTOR_H_
