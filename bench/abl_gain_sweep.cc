// Ablation: sensitivity to the PID gains around the paper's values
// (Kp=0.025, Ki=0.005, Kd=0.015) and the role of each term. The paper
// reports that Ki must be small and Kd relatively large "owing to the
// slow reaction speed of transaction latency to a change in the
// migration speed" — larger Kd damps oscillation. Runs a migration per
// gain set and reports setpoint tracking error and latency stability.

#include <cmath>
#include <cstdio>

#include "bench/fleet.h"

namespace slacker::bench {
namespace {

struct GainResult {
  double mean_error_pct = 0.0;
  double stddev_ms = 0.0;
  double avg_speed = 0.0;
  bool finished = false;
  bool audited = false;
};

GainResult Run(const ExperimentOptions& flags, double kp, double ki,
               double kd) {
  ExperimentOptions options = flags;
  options.config = PaperConfig::kEvaluation;
  Fleet bed(options);
  MigrationOptions migration = bed.BaseMigration();
  migration.pid.kp = kp;
  migration.pid.ki = ki;
  migration.pid.kd = kd;
  migration.pid.setpoint = 1000.0;
  MigrationReport report;
  const SimTime start = bed.sim()->Now();
  GainResult result;
  result.finished = bed.RunMigration(migration, &report, 3000.0);
  const SimTime end = bed.sim()->Now();
  const PercentileTracker lat =
      bed.LatenciesBetween(start + (end - start) * 0.25, end);
  result.mean_error_pct =
      std::abs(lat.Mean() - 1000.0) / 1000.0 * 100.0;
  result.stddev_ms = lat.Stddev();
  result.avg_speed = report.AverageRateMbps();
  result.audited = bed.Finish();
  return result;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);
  bool audited = true;

  struct GainSet {
    const char* name;
    double kp, ki, kd;
  };
  const GainSet sets[] = {
      {"paper (0.025/0.005/0.015)", 0.025, 0.005, 0.015},
      {"half gains", 0.0125, 0.0025, 0.0075},
      {"double gains", 0.05, 0.01, 0.03},
      {"no derivative (PI)", 0.025, 0.005, 0.0},
      {"no proportional (ID)", 0.0, 0.005, 0.015},
      {"integral only (I)", 0.0, 0.005, 0.0},
      {"large Ki (windup-prone)", 0.025, 0.02, 0.015},
  };

  PrintHeader("Ablation", "PID gain sweep around the paper's values "
              "(setpoint 1000 ms)");
  std::printf("  %-28s %10s %12s %12s %6s\n", "gains", "err vs SP",
              "latency sd", "avg speed", "done");
  double paper_sd = 0.0, large_ki_sd = 0.0, no_kd_sd = 0.0;
  for (const GainSet& g : sets) {
    const GainResult r = Run(flags.options, g.kp, g.ki, g.kd);
    audited = r.audited && audited;
    std::printf("  %-28s %8.1f %% %9.0f ms %9.1f MB/s %6s\n", g.name,
                r.mean_error_pct, r.stddev_ms, r.avg_speed,
                r.finished ? "yes" : "NO");
    if (g.kd == 0.015 && g.ki == 0.005 && g.kp == 0.025) paper_sd = r.stddev_ms;  // NOLINT(slacker-float-eq)
    if (g.ki == 0.02) large_ki_sd = r.stddev_ms;  // NOLINT(slacker-float-eq)
    if (g.kp == 0.025 && g.ki == 0.005 && g.kd == 0.0) no_kd_sd = r.stddev_ms;  // NOLINT(slacker-float-eq)
  }
  PrintRow("small Ki / large Kd stabilizes", "paper's tuning insight",
           paper_sd <= large_ki_sd * 1.05 ? "yes (paper sd <= large-Ki sd)"
                                          : "NO");
  PrintRow("derivative damps oscillation", "larger Kd -> fewer swings",
           paper_sd <= no_kd_sd * 1.05 ? "yes (paper sd <= PI sd)"
                                       : "mixed (see table)");
  return audited ? 0 : 1;
}
