// Ablation: velocity-form PID (Slacker's choice, §4.2.3) vs the classic
// positional form with clamped-integral anti-windup. The scenario that
// separates them is the paper's rationale: a lightly loaded server
// keeps latency far below the setpoint even at full migration speed, so
// the positional controller's integral saturates; when load arrives
// mid-migration, it reacts late, overshooting latency. The ablation
// (1) measures recovery at the controller level on a saturation step
// and (2) runs the velocity form end-to-end through a load surge.

#include <cstdio>

#include "bench/fleet.h"
#include "src/common/invariant.h"

namespace slacker::bench {
namespace {

struct SurgeResult {
  double surge_p99 = 0.0;
  double surge_mean = 0.0;
  double avg_speed = 0.0;
  bool audited = false;
};

SurgeResult RunVelocityEndToEnd(const ExperimentOptions& flags) {
  ExperimentOptions options = flags;
  options.config = PaperConfig::kEvaluation;
  options.arrival_scale = 0.4;  // Quiet at first: controller saturates.
  Fleet bed(options);

  MigrationOptions migration = bed.BaseMigration();
  migration.pid.setpoint = 800.0;
  MigrationReport report;
  bool done = false;
  const Status started = bed.cluster()->StartMigration(
      /*tenant_id=*/1, /*target_server=*/1, migration,
      [&](const MigrationReport& r) {
        report = r;
        done = true;
      });
  // A failed start invalidates the whole experiment; fail loudly.
  SLACKER_CHECK(started.ok(), started.ToString());

  const SimTime start = bed.sim()->Now();
  bed.sim()->RunUntil(start + 40.0);       // Quiet phase: saturation.
  bed.workload(0)->ScaleArrivalRate(3.2);  // Surge.
  bed.sim()->RunUntil(start + 100.0);
  SurgeResult result;
  const PercentileTracker surge =
      bed.LatenciesBetween(start + 45.0, bed.sim()->Now());
  result.surge_p99 = surge.Percentile(99);
  result.surge_mean = surge.Mean();
  const SimTime deadline = bed.sim()->Now() + 2000.0;
  while (!done && bed.sim()->Now() < deadline) {
    bed.sim()->RunUntil(bed.sim()->Now() + 5.0);
  }
  result.avg_speed = report.AverageRateMbps();
  result.audited = bed.Finish();
  return result;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using namespace slacker;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);

  // Controller-level ablation on a saturating step (deterministic).
  control::PidConfig config;
  config.setpoint = 800.0;
  config.output_min = 0.0;
  config.output_max = 50.0;
  control::PidController velocity(config, control::PidForm::kVelocity);
  control::PidController positional(config, control::PidForm::kPositional);
  for (int i = 0; i < 300; ++i) {
    velocity.Update(100.0, 1.0);    // Quiet: both saturate at 50 MB/s.
    positional.Update(100.0, 1.0);
  }
  // A *moderate* overload (latency 1200 vs setpoint 800): this is where
  // the forms separate. The proportional/derivative terms alone cannot
  // cancel the positional form's saturated integral, which must unwind
  // tick by tick; the velocity form carries no sum and backs off at
  // once. (A huge overload hides the difference — P and D dominate.)
  int velocity_recovery = -1, positional_recovery = -1;
  for (int i = 0; i < 100; ++i) {
    velocity.Update(1200.0, 1.0);
    positional.Update(1200.0, 1.0);
    if (velocity_recovery < 0 && velocity.output() < 5.0) {
      velocity_recovery = i + 1;
    }
    if (positional_recovery < 0 && positional.output() < 5.0) {
      positional_recovery = i + 1;
    }
  }

  PrintHeader("Ablation", "velocity vs positional PID (windup behaviour)");
  PrintRow("velocity: ticks to throttle <5 MB/s after overload",
           "fast (no error sum)",
           velocity_recovery < 0 ? "never"
                                 : std::to_string(velocity_recovery));
  PrintRow("positional: ticks to throttle <5 MB/s",
           "slow (integral must unwind)",
           positional_recovery < 0 ? "never (>100)"
                                   : std::to_string(positional_recovery));
  PrintRow("velocity reacts faster", "yes — the §4.2.3 design point",
           (velocity_recovery > 0 &&
            (positional_recovery < 0 ||
             velocity_recovery < positional_recovery))
               ? "yes"
               : "NO");

  // End-to-end sanity: the velocity-form migration under a surge.
  SurgeResult vel = RunVelocityEndToEnd(flags.options);
  PrintRow("end-to-end (velocity): surge-phase latency",
           "recovers toward setpoint",
           FormatMs(vel.surge_mean) + " mean, p99 " +
               FormatMs(vel.surge_p99));
  PrintRow("end-to-end (velocity): avg speed", "-", FormatMbps(vel.avg_speed));
  return vel.audited ? 0 : 1;
}
