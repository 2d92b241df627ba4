// Figure 11a: on the §5 evaluation configuration, (1) average latency
// under fixed throttles from 5 to 30 MB/s — low and stable at low
// speeds, exceeding the migration slack near the top of the sweep — and
// (2) Slacker's dynamic throttle for setpoints 500..5000 ms, plotted as
// achieved average migration speed. The dynamic curve shows diminishing
// returns: beyond a point, raising the setpoint stops buying speed
// because the available slack is exhausted — that plateau approximates
// the true slack.
//
// Paper anchors: fixed curve rises and blows up around 25 MB/s; Slacker
// speeds 6.1 MB/s @500 ms, 12.6 @1000, 18.7 @2500, plateau ≈23 MB/s
// from 3500 up.

#include <cstdio>
#include <vector>

#include "bench/fleet.h"

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using namespace slacker;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);
  bool audited = true;

  PrintHeader("Figure 11a (fixed)",
              "latency vs fixed throttling rate, 5-30 MB/s");
  std::printf("  %-12s %12s %12s %12s\n", "rate", "avg latency", "stddev",
              "duration");
  double last_low_rate_latency = 0.0, top_rate_latency = 0.0;
  for (double rate : {5.0, 10.0, 15.0, 20.0, 25.0, 30.0}) {
    ExperimentOptions options = flags.options;
    options.config = PaperConfig::kEvaluation;
    Fleet bed(options);
    MigrationOptions migration = bed.BaseMigration();
    migration.throttle = ThrottleKind::kFixed;
    migration.fixed_rate_mbps = rate;
    MigrationReport report;
    const SimTime start = bed.sim()->Now();
    bed.RunMigration(migration, &report, 1200.0);
    const PercentileTracker lat = bed.LatenciesBetween(start, bed.sim()->Now());
    std::printf("  %6.0f MB/s %9.0f ms %9.0f ms %9.0f s\n", rate, lat.Mean(),
                lat.Stddev(), report.DurationSeconds());
    if (rate == 5.0) last_low_rate_latency = lat.Mean();  // NOLINT(slacker-float-eq)
    if (rate == 30.0) top_rate_latency = lat.Mean();  // NOLINT(slacker-float-eq)
    audited = bed.Finish() && audited;
  }
  PrintRow("low-speed latency", "low, stable (~100-300 ms)",
           FormatMs(last_low_rate_latency));
  PrintRow("top-of-sweep latency", "slack exceeded (1000s of ms)",
           FormatMs(top_rate_latency));

  PrintHeader("Figure 11a (Slacker)",
              "achieved speed vs setpoint, 500-5000 ms");
  std::printf("  %-12s %14s %14s %12s\n", "setpoint", "avg speed",
              "avg latency", "duration");
  std::vector<double> speeds;
  for (double setpoint = 500.0; setpoint <= 5000.0; setpoint += 500.0) {
    ExperimentOptions options = flags.options;
    options.config = PaperConfig::kEvaluation;
    Fleet bed(options);
    MigrationOptions migration = bed.BaseMigration();
    migration.throttle = ThrottleKind::kPid;
    migration.pid.setpoint = setpoint;
    MigrationReport report;
    const SimTime start = bed.sim()->Now();
    const bool done = bed.RunMigration(migration, &report, 3000.0);
    const PercentileTracker lat = bed.LatenciesBetween(start, bed.sim()->Now());
    const double speed = report.AverageRateMbps();
    speeds.push_back(speed);
    std::printf("  %7.0f ms %10.1f MB/s %10.0f ms %9.0f s%s\n", setpoint,
                speed, lat.Mean(), report.DurationSeconds(),
                done ? "" : "  (DID NOT FINISH)");
    audited = bed.Finish() && audited;
  }
  // Shape checks: speed grows quickly at first, then plateaus.
  const double early_gain = speeds[1] - speeds[0];   // 500 -> 1000 ms.
  const double late_gain = speeds.back() - speeds[speeds.size() - 3];
  PrintRow("speed rises with setpoint at first", "6.1 -> 12.6 MB/s",
           FormatMbps(speeds[0]) + " -> " + FormatMbps(speeds[1]));
  PrintRow("plateau near the slack (diminishing returns)",
           "~23 MB/s beyond 3500 ms",
           FormatMbps(speeds[speeds.size() - 3]) + " -> " +
               FormatMbps(speeds.back()));
  PrintRow("early gain >> late gain", "yes",
           early_gain > 2.0 * late_gain ? "yes" : "NO");
  return audited ? 0 : 1;
}
