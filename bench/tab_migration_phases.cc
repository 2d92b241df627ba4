// §2.3.2 phase breakdown: "applying deltas usually represents only a
// very small portion (a few seconds) of the entire migration process
// ... the initial snapshot transfer is by a large margin the most
// time-consuming step", and the freeze-and-handover is "well under 1
// second in all experiments". Reports per-phase times for live
// migrations across throttle settings and write intensities.

#include <cstdio>

#include "bench/fleet.h"

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using namespace slacker;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);

  PrintHeader("Migration phases (§2.3.2)",
              "snapshot / prepare / delta / handover breakdown");
  std::printf("  %-26s %10s %9s %9s %10s %8s\n", "scenario", "snapshot",
              "prepare", "delta", "handover", "rounds");

  struct Scenario {
    const char* name;
    double rate;         // Fixed rate, or 0 for PID@1000ms.
    double write_scale;  // 1.0 = paper mix.
  };
  const Scenario scenarios[] = {
      {"fixed 8 MB/s", 8.0, 1.0},
      {"fixed 16 MB/s", 16.0, 1.0},
      {"pid setpoint 1000 ms", 0.0, 1.0},
      {"fixed 16, write-heavy", 16.0, 3.0},
  };

  bool snapshot_dominates = true, handover_subsecond = true, audited = true;
  for (const Scenario& s : scenarios) {
    ExperimentOptions options = flags.options;
    options.config = PaperConfig::kEvaluation;
    Fleet bed(options);
    MigrationOptions migration = bed.BaseMigration();
    if (s.rate > 0.0) {
      migration.throttle = ThrottleKind::kFixed;
      migration.fixed_rate_mbps = s.rate;
    } else {
      migration.pid.setpoint = 1000.0;
    }
    if (s.write_scale != 1.0) {  // NOLINT(slacker-float-eq)
      migration.delta_handover_bytes = 64 * kKiB;
    }
    MigrationReport report;
    bed.RunMigration(migration, &report, 3000.0);
    std::printf("  %-26s %8.1f s %7.1f s %7.1f s %8.0f ms %6d\n", s.name,
                report.snapshot_seconds, report.prepare_seconds,
                report.delta_seconds, MsFromSeconds(report.handover_seconds),
                report.delta_rounds);
    snapshot_dominates =
        snapshot_dominates &&
        report.snapshot_seconds >
            (report.prepare_seconds + report.delta_seconds +
             report.handover_seconds);
    handover_subsecond = handover_subsecond && report.downtime_ms < 1000.0;
    audited = bed.Finish() && audited;
  }
  PrintRow("snapshot dominates total time", "by a large margin",
           snapshot_dominates ? "yes" : "NO");
  PrintRow("delta phase", "a few seconds", "see table");
  PrintRow("freeze-and-handover", "well under 1 second",
           handover_subsecond ? "yes, all runs" : "NO");
  return audited ? 0 : 1;
}
