// Figure 6: a 16 MB/s fixed throttle exceeds the case-study server's
// migration slack — the server can no longer keep up with steady-state
// query load, transactions queue faster than they are serviced, and
// latency grows continuously until the migration completes.
//
// Paper anchors: average 20254 ms over a 95 s migration; latency rises
// monotonically to ~50 s by the end.

#include <cstdio>

#include "bench/fleet.h"

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using namespace slacker;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);

  ExperimentOptions options = flags.options;
  options.config = PaperConfig::kCaseStudy;
  Fleet bed(options);
  MigrationOptions migration = bed.BaseMigration();
  migration.throttle = ThrottleKind::kFixed;
  migration.fixed_rate_mbps = 16.0;

  MigrationReport report;
  const SimTime start = bed.sim()->Now();
  const bool done = bed.RunMigration(migration, &report, 1200.0);
  const SimTime end = bed.sim()->Now();
  const PercentileTracker latencies = bed.LatenciesBetween(start, end);

  PrintHeader("Figure 6", "16 MB/s migration: slack exceeded, overload");
  PrintRow("average latency", "20254 ms", FormatMs(latencies.Mean()));
  PrintRow("migration duration", "95 s",
           FormatSeconds(report.DurationSeconds()));
  PrintRow("completed", "yes", done ? "yes" : "NO");

  // The signature: latency keeps growing for the whole run (queue
  // growth, not a plateau). Compare the first and last ~1/8th.
  const SimTime eighth = (end - start) / 8.0;
  const auto early = bed.LatenciesBetween(start, start + eighth);
  const auto late = bed.LatenciesBetween(end - eighth, end);
  PrintRow("early-run average", "low", FormatMs(early.Mean()));
  PrintRow("late-run average", "tens of seconds", FormatMs(late.Mean()));
  PrintRow("growth factor late/early", ">> 1 (unbounded queueing)",
           std::to_string(static_cast<int>(late.Mean() /
                                           (early.Mean() + 1e-9))) + "x");

  const auto series = bed.MergedLatencySeries().Smoothed(1.0, 3.0, start, end);
  PrintSeries("latency time series (3 s smoothed, ms)", series, 10.0);
  MaybeWriteCsv("fig06_overload_latency", bed.MergedLatencySeries(),
                "latency_ms");
  const bool gated =
      Gate("fig06 late/early latency > 2", late.Mean() > 2.0 * early.Mean());
  return bed.Finish() && gated ? 0 : 1;
}
