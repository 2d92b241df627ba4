// Figure 12: time series of the dynamic throttle speed alongside the
// transaction latency it is regulating, for a 1000 ms setpoint — the
// throttle is "roughly an inverse of transaction latency": it backs off
// (sometimes to zero) during latency bursts and accelerates in the
// quiet gaps.
//
// Paper anchors: 143 s migration; throttle oscillating around the level
// that keeps latency pinned near the 1000 ms setpoint.

#include <cstdio>

#include "bench/fleet.h"

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using namespace slacker;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);

  ExperimentOptions options = flags.options;
  options.config = PaperConfig::kEvaluation;
  Fleet bed(options);
  MigrationOptions migration = bed.BaseMigration();
  migration.pid.setpoint = 1000.0;

  MigrationReport report;
  const SimTime start = bed.sim()->Now();
  const bool done = bed.RunMigration(migration, &report, 3000.0);
  const SimTime end = bed.sim()->Now();

  PrintHeader("Figure 12",
              "throttle + latency time series, 1000 ms setpoint");
  PrintRow("migration completed", "143 s",
           done ? FormatSeconds(report.DurationSeconds()) : "DID NOT FINISH");
  const SimTime converged = start + (end - start) * 0.25;
  const PercentileTracker lat = bed.LatenciesBetween(converged, end);
  PrintRow("regulated latency (post-ramp)", "~1000 ms (the setpoint)",
           FormatMs(lat.Mean()));
  PrintRow("average throttle speed", "inverse of latency bursts",
           FormatMbps(report.AverageRateMbps()));

  // Correlation check: throttle changes should oppose latency changes.
  // Compare each controller tick's rate delta against the process
  // variable's deviation from the setpoint.
  const auto& rates = report.throttle_series.points();
  const auto& pvs = report.controller_latency_series.points();
  size_t opposing = 0, moves = 0;
  for (size_t i = 1; i < rates.size() && i < pvs.size(); ++i) {
    const double rate_delta = rates[i].value - rates[i - 1].value;
    const double error = 1000.0 - pvs[i].value;
    if (rate_delta == 0.0) continue;  // NOLINT(slacker-float-eq)
    ++moves;
    if ((rate_delta > 0) == (error > 0)) ++opposing;
  }
  PrintRow("throttle moves against latency error",
           "throttle ~ inverse of latency",
           std::to_string(moves == 0 ? 0 : 100 * opposing / moves) +
               "% of ticks");

  MaybeWriteCsv("fig12_throttle_mbps", report.throttle_series, "mbps");
  MaybeWriteCsv("fig12_controller_latency", report.controller_latency_series,
                "latency_ms");
  std::printf("\n  tick series (every 10 s): throttle MB/s | latency ms\n");
  for (size_t i = 0; i < rates.size(); i += 10) {
    const double pv = i < pvs.size() ? pvs[i].value : 0.0;
    std::printf("    t=%6.0f  %8.1f MB/s  %10.0f ms\n", rates[i].t,
                rates[i].value, pv);
  }
  return bed.Finish() ? 0 : 1;
}
