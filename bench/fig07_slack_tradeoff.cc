// Figure 7: the migration-speed / workload-performance tradeoff on the
// case-study configuration — average latency (with standard deviation)
// and migration duration as a function of fixed throttle speed. Both
// rise with speed: faster migrations finish sooner but cost latency
// and latency *stability* (the paper's argument for why picking the
// exploited slack level is SLA-dependent).

#include <cstdio>
#include <limits>

#include "bench/fleet.h"

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using namespace slacker;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);

  PrintHeader("Figure 7",
              "average latency / stddev / duration vs migration speed");
  std::printf("  %-10s %14s %14s %14s\n", "speed", "avg latency", "stddev",
              "duration");

  // Paper points (read off Figure 7): 0 -> 79 ms; 4 -> 153 ms;
  // 8 -> 410 ms; 12 -> 720 ms; durations 281/164/130 s.
  const double paper_avg[] = {79, 153, 410, 720};
  const double paper_dur[] = {0, 281, 164, 130};
  int i = 0;
  double prev_avg = 0.0, prev_sd = 0.0;
  double prev_duration = std::numeric_limits<double>::infinity();
  bool monotone_avg = true, monotone_sd = true, duration_falls = true;
  bool audited = true;
  for (double rate : {0.0, 4.0, 8.0, 12.0}) {
    ExperimentOptions options = flags.options;
    options.config = PaperConfig::kCaseStudy;
    Fleet bed(options);
    PercentileTracker latencies;
    double duration = 0.0;
    if (rate == 0.0) {  // NOLINT(slacker-float-eq)
      latencies = bed.RunBaseline(180.0);
      duration = 180.0;
    } else {
      MigrationOptions migration = bed.BaseMigration();
      migration.throttle = ThrottleKind::kFixed;
      migration.fixed_rate_mbps = rate;
      MigrationReport report;
      const SimTime start = bed.sim()->Now();
      bed.RunMigration(migration, &report, 1200.0);
      latencies = bed.LatenciesBetween(start, bed.sim()->Now());
      duration = report.DurationSeconds();
      // Only migrations count: the baseline's 180 s is a window.
      duration_falls = duration_falls && duration < prev_duration;
      prev_duration = duration;
    }
    std::printf(
        "  %5.0f MB/s %7.0f ms (paper %4.0f) %6.0f ms %8.0f s (paper %3.0f)\n",
        rate, latencies.Mean(), paper_avg[i], latencies.Stddev(), duration,
        paper_dur[i]);
    monotone_avg = monotone_avg && latencies.Mean() > prev_avg;
    monotone_sd = monotone_sd && latencies.Stddev() >= prev_sd;
    prev_avg = latencies.Mean();
    prev_sd = latencies.Stddev();
    ++i;
    audited = bed.Finish() && audited;
  }
  PrintRow("avg latency rises with speed", "yes", monotone_avg ? "yes" : "NO");
  PrintRow("latency instability rises too", "yes", monotone_sd ? "yes" : "NO");
  bool gated = Gate("fig07 mean latency rises with speed", monotone_avg);
  gated = Gate("fig07 latency sd rises with speed", monotone_sd) && gated;
  gated = Gate("fig07 duration falls across 4/8/12 MB/s", duration_falls) &&
          gated;
  return audited && gated ? 0 : 1;
}
