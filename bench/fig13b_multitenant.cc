// Figure 13b: multitenant migration. Five tenants share the source
// server (same total load as the single-tenant runs); one of them is
// migrated while the other four run obliviously. The controller
// aggregates latency across *all* tenants on the server (per-server
// SLA, §5.6). Slacker keeps the cross-tenant average near the setpoint
// and below an equivalent fixed throttle.

#include <cstdio>

#include "bench/fleet.h"

namespace slacker::bench {
namespace {

struct MultiResult {
  PercentileTracker all_tenants;
  PercentileTracker neighbors_only;
  double avg_speed = 0.0;
  bool finished = false;
  uint64_t failed = 0;
  bool audited = false;
};

MultiResult Run(const ExperimentOptions& flags, bool use_pid,
                double fixed_rate, double setpoint) {
  ExperimentOptions options = flags;
  options.config = PaperConfig::kEvaluation;
  options.tenants = 5;
  Fleet bed(options);
  MigrationOptions migration = bed.BaseMigration();
  if (use_pid) {
    migration.pid.setpoint = setpoint;
  } else {
    migration.throttle = ThrottleKind::kFixed;
    migration.fixed_rate_mbps = fixed_rate;
  }
  MigrationReport report;
  const SimTime start = bed.sim()->Now();
  MultiResult result;
  result.finished =
      bed.RunMigration(migration, &report, 3000.0, /*tenant_id=*/3);
  const SimTime end = bed.sim()->Now();
  result.avg_speed = report.AverageRateMbps();
  result.all_tenants = bed.LatenciesBetween(start + (end - start) * 0.25, end);
  for (size_t i = 0; i < bed.pools().size(); ++i) {
    if (i == 2) continue;
    const workload::ClientPool& pool = *bed.pools()[i];
    for (const auto& p : pool.latency_series().points()) {
      if (p.t >= start && p.t <= end) result.neighbors_only.Add(p.value);
    }
    result.failed += pool.stats().failed;
  }
  result.audited = bed.Finish();
  return result;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);

  const double setpoint = 1000.0;
  MultiResult slacker = Run(flags.options, /*use_pid=*/true, 0.0, setpoint);
  // "The equivalent fixed throttle": the speed Slacker averaged.
  MultiResult fixed =
      Run(flags.options, /*use_pid=*/false, slacker.avg_speed, setpoint);

  PrintHeader("Figure 13b", "5 tenants, migrate one, per-server latency");
  PrintRow("slacker avg latency (all tenants)",
           "close to the setpoint", FormatMs(slacker.all_tenants.Mean()) +
               " (setpoint " + FormatMs(setpoint) + ")");
  PrintRow("fixed-throttle avg latency", "significantly above slacker",
           FormatMs(fixed.all_tenants.Mean()));
  PrintRow("slacker below fixed", "yes",
           slacker.all_tenants.Mean() < fixed.all_tenants.Mean() ? "yes"
                                                                 : "NO");
  PrintRow("neighbors affected but serviced", "oblivious to migration",
           FormatMs(slacker.neighbors_only.Mean()) + " avg, " +
               std::to_string(slacker.failed) + " failures");
  PrintRow("slacker avg speed", "-", FormatMbps(slacker.avg_speed));
  PrintRow("migration completed", "yes", slacker.finished ? "yes" : "NO");
  // "Slacker below fixed" stays ungated: a documented deviation
  // (EXPERIMENTS.md).
  bool gated = Gate("fig13b slacker below the 1000 ms setpoint",
                    slacker.all_tenants.Mean() < setpoint);
  gated = Gate("fig13b neighbours have 0 failed transactions",
               slacker.failed == 0) &&
          gated;
  return slacker.audited && fixed.audited && gated ? 0 : 1;
}
