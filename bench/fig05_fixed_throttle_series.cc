// Figure 5 (a-d): transaction latency over time with no migration and
// with fixed migration throttles of 4/8/12 MB/s, on the §3.2 case-study
// configuration (1 GB tenant, 256 MB buffer). Reproduces the paper's
// per-run averages, the increase in both level and variance with
// throttle speed, and the run durations (driven by 1 GB / rate).
//
// Paper anchors: baseline 79 ms over a 180 s run; 4 MB/s → 153 ms
// (281 s); 8 MB/s → 410 ms (164 s... the paper's duration includes
// workload tails); 12 MB/s → 720 ms with swings between ~200 and
// ~1500 ms (130 s).

#include <cstdio>

#include "bench/fleet.h"

namespace slacker::bench {
namespace {

bool RunBaselineCase(const ExperimentOptions& flags) {
  ExperimentOptions options = flags;
  options.config = PaperConfig::kCaseStudy;
  Fleet bed(options);
  const SimTime start = bed.sim()->Now();
  const PercentileTracker latencies = bed.RunBaseline(180.0);
  PrintHeader("Figure 5a", "baseline, no migration (180 s)");
  PrintRow("average latency", "79 ms", FormatMs(latencies.Mean()));
  PrintRow("behaviour", "flat, stable",
           "stddev " + FormatMs(latencies.Stddev()));
  const auto series =
      bed.MergedLatencySeries().Smoothed(1.0, 3.0, start, bed.sim()->Now());
  PrintSeries("latency time series (3 s smoothed, ms)", series, 20.0);
  MaybeWriteCsv("fig05a_baseline_latency", bed.MergedLatencySeries(),
                "latency_ms");
  return bed.Finish();
}

bool RunThrottledCase(const ExperimentOptions& flags, double mbps,
                      const char* figure, const char* paper_avg,
                      const char* paper_duration) {
  ExperimentOptions options = flags;
  options.config = PaperConfig::kCaseStudy;
  Fleet bed(options);
  MigrationOptions migration = bed.BaseMigration();
  migration.throttle = ThrottleKind::kFixed;
  migration.fixed_rate_mbps = mbps;

  MigrationReport report;
  const SimTime start = bed.sim()->Now();
  const bool done = bed.RunMigration(migration, &report, 1200.0);
  const PercentileTracker latencies =
      bed.LatenciesBetween(start, bed.sim()->Now());

  char title[64];
  std::snprintf(title, sizeof(title), "migration throttled at %.0f MB/s",
                mbps);
  PrintHeader(figure, title);
  PrintRow("average latency", paper_avg, FormatMs(latencies.Mean()));
  PrintRow("migration duration", paper_duration,
           FormatSeconds(report.DurationSeconds()));
  PrintRow("latency stddev", "grows with speed",
           FormatMs(latencies.Stddev()));
  PrintRow("p99 latency", "-", FormatMs(latencies.Percentile(99)));
  PrintRow("completed / downtime", done ? "zero client downtime" : "-",
           FormatMs(report.downtime_ms) + " freeze");
  const auto series =
      bed.MergedLatencySeries().Smoothed(1.0, 3.0, start, bed.sim()->Now());
  PrintSeries("latency time series (3 s smoothed, ms)", series, 20.0);
  char csv_name[64];
  std::snprintf(csv_name, sizeof(csv_name), "fig05_%.0fmbps_latency", mbps);
  MaybeWriteCsv(csv_name, bed.MergedLatencySeries(), "latency_ms");
  return bed.Finish();
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);
  bool audited = RunBaselineCase(flags.options);
  audited = RunThrottledCase(flags.options, 4.0, "Figure 5b", "153 ms",
                             "281 s total (256 s copy)") &&
            audited;
  audited = RunThrottledCase(flags.options, 8.0, "Figure 5c", "410 ms",
                             "164 s total (128 s copy)") &&
            audited;
  audited = RunThrottledCase(flags.options, 12.0, "Figure 5d",
                             "720 ms (200-1500 swings)",
                             "130 s total (85 s copy)") &&
            audited;
  return audited ? 0 : 1;
}
