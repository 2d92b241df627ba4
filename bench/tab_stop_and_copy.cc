// §2.3.1: stop-and-copy downtime is proportional to database size, and
// the mysqldump-style variant is far slower than the file-level copy
// because of re-import overhead — the paper's motivation for live
// migration. Sweeps tenant size and reports downtime for file-level
// copy, dump+import, and the live migration's sub-second freeze.

#include <cstdio>

#include "bench/fleet.h"

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using namespace slacker;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);

  PrintHeader("Stop-and-copy (§2.3.1)",
              "downtime vs database size vs mechanism");
  std::printf("  %-10s %16s %16s %16s\n", "size", "file-level", "dump+import",
              "live (freeze)");

  bool proportional = true, freeze_tiny = true, audited = true;
  double prev_downtime = 0.0, prev_size = 0.0;
  for (double gig : {0.125, 0.25, 0.5}) {
    double file_ms = 0.0, dump_ms = 0.0, live_ms = 0.0;
    for (int mode = 0; mode < 3; ++mode) {
      ExperimentOptions options = flags.options;
      options.config = PaperConfig::kEvaluation;
      options.size_scale = gig;
      options.warmup_seconds = 10.0;
      Fleet bed(options);
      MigrationOptions migration = bed.BaseMigration();
      if (mode == 2) {
        migration.pid.setpoint = 1000.0;
      } else {
        migration.mode = MigrationMode::kStopAndCopy;
        migration.throttle = ThrottleKind::kFixed;
        migration.fixed_rate_mbps = 16.0;
        migration.file_level_copy = mode == 0;
      }
      MigrationReport report;
      bed.RunMigration(migration, &report, 3000.0);
      if (mode == 0) file_ms = report.downtime_ms;
      if (mode == 1) dump_ms = report.downtime_ms;
      if (mode == 2) live_ms = report.downtime_ms;
      audited = bed.Finish() && audited;
    }
    freeze_tiny = freeze_tiny && live_ms < 0.01 * file_ms;
    std::printf("  %6.0f MB %13.1f s %13.1f s %13.0f ms\n", gig * 1024.0,
                file_ms / 1000.0, dump_ms / 1000.0, live_ms);
    if (prev_size > 0.0) {
      const double ratio = file_ms / prev_downtime;
      const double size_ratio = gig / prev_size;
      proportional = proportional && ratio > size_ratio * 0.7 &&
                     ratio < size_ratio * 1.3;
    }
    prev_downtime = file_ms;
    prev_size = gig;
  }
  PrintRow("downtime proportional to size", "yes", proportional ? "yes" : "NO");
  PrintRow("dump slower than file-level", "much slower (re-import)", "see table");
  PrintRow("live migration downtime", "well under 1 second", "see table");
  bool gated =
      Gate("tab_stop_and_copy file-level downtime proportional to size",
           proportional);
  gated = Gate("tab_stop_and_copy live freeze < 1% of file-level downtime",
               freeze_tiny) &&
          gated;
  return audited && gated ? 0 : 1;
}
