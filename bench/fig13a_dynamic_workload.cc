// Figure 13a: dynamic workload. A migration is running when the
// tenant's arrival rate jumps by 40% mid-flight. The fixed throttle
// (set to the speed the dynamic run sustained before the step) cannot
// adjust: the server is pushed past its capacity and latency degrades
// continuously. Slacker gives back slack — the controller cuts the
// migration rate and latency re-converges to the 1500 ms setpoint.

#include <cstdio>

#include "bench/fleet.h"

namespace slacker::bench {
namespace {

constexpr double kStepAfter = 30.0;   // Step arrives 30 s into migration.
constexpr double kObserveEnd = 90.0;  // Post-step observation horizon.

struct DynamicResult {
  PercentileTracker before;
  PercentileTracker after;
  double pre_step_rate = 0.0;   // Mean throttle before the step.
  double post_step_rate = 0.0;  // Mean throttle after the step.
  bool finished = false;
  bool audited = false;
};

DynamicResult RunDynamic(const ExperimentOptions& flags, bool use_pid,
                         double fixed_rate) {
  ExperimentOptions options = flags;
  options.config = PaperConfig::kEvaluation;
  // Busier than the base evaluation so the +40% genuinely removes the
  // remaining slack.
  options.arrival_scale = 1.3;
  Fleet bed(options);
  MigrationOptions migration = bed.BaseMigration();
  if (use_pid) {
    migration.pid.setpoint = 1500.0;
  } else {
    migration.throttle = ThrottleKind::kFixed;
    migration.fixed_rate_mbps = fixed_rate;
  }

  MigrationReport report;
  bool done = false;
  const SimTime start = bed.sim()->Now();
  const Status started = bed.cluster()->StartMigration(
      /*tenant_id=*/1, /*target_server=*/1, migration,
      [&](const MigrationReport& r) {
        report = r;
        done = true;
      });
  DynamicResult result;
  if (!started.ok()) {  // Fails the "both complete" gate.
    std::fprintf(stderr, "StartMigration failed: %s\n",
                 started.ToString().c_str());
    result.audited = bed.Finish();
    return result;
  }
  // Phase 1: original workload.
  bed.sim()->RunUntil(start + kStepAfter);
  result.before = bed.LatenciesBetween(start + 10.0, bed.sim()->Now());
  if (MigrationJob* job = bed.cluster()->ActiveJob(/*tenant_id=*/1)) {
    result.pre_step_rate =
        job->report().throttle_series.StatsAll().mean();
  } else if (done) {
    result.pre_step_rate =
        report.throttle_series.StatsBetween(start, start + kStepAfter).mean();
  }
  // Phase 2: +40% arrival rate while the migration is in flight.
  bed.workload(0)->ScaleArrivalRate(1.4);
  bed.sim()->RunUntil(start + kObserveEnd);
  result.after = bed.LatenciesBetween(start + kStepAfter + 10.0,
                                      bed.sim()->Now());
  if (MigrationJob* job = bed.cluster()->ActiveJob(/*tenant_id=*/1)) {
    result.post_step_rate = job->report()
                                .throttle_series
                                .StatsBetween(start + kStepAfter,
                                              bed.sim()->Now())
                                .mean();
  } else if (done) {
    result.post_step_rate =
        report.throttle_series
            .StatsBetween(start + kStepAfter, start + kObserveEnd)
            .mean();
  }
  // Let the migration finish.
  const SimTime deadline = bed.sim()->Now() + 3000.0;
  while (!done && bed.sim()->Now() < deadline) {
    bed.sim()->RunUntil(bed.sim()->Now() + 5.0);
  }
  result.finished = done;
  result.audited = bed.Finish();
  return result;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);

  // Slacker first; the fixed run copies its pre-step speed (the
  // paper's "fixed throttle that achieves an equivalent speed").
  DynamicResult slacker = RunDynamic(flags.options, /*use_pid=*/true, 0.0);
  DynamicResult fixed =
      RunDynamic(flags.options, /*use_pid=*/false, slacker.pre_step_rate);

  PrintHeader("Figure 13a", "workload +40% during migration");
  PrintRow("pre-step latency", "both relatively stable",
           "slacker " + FormatMs(slacker.before.Mean()) + ", fixed " +
               FormatMs(fixed.before.Mean()));
  PrintRow("matched migration speed (pre-step)", "equivalent",
           "slacker " + FormatMbps(slacker.pre_step_rate) + ", fixed " +
               FormatMbps(fixed.pre_step_rate));
  PrintRow("fixed after step", "rapidly degrades, requests queue",
           FormatMs(fixed.after.Mean()) + " mean, p99 " +
               FormatMs(fixed.after.Percentile(99)));
  PrintRow("slacker after step", "maintained near 1500 ms setpoint",
           FormatMs(slacker.after.Mean()) + " mean, p99 " +
               FormatMs(slacker.after.Percentile(99)));
  PrintRow("slacker cuts migration rate", "yes (fits reduced slack)",
           FormatMbps(slacker.pre_step_rate) + " -> " +
               FormatMbps(slacker.post_step_rate));
  PrintRow("slacker keeps latency below fixed", "yes",
           slacker.after.Mean() < fixed.after.Mean() ? "yes" : "NO");
  PrintRow("both migrations complete", "yes",
           slacker.finished && fixed.finished ? "yes" : "NO");
  bool gated = Gate("fig13a slacker after-step mean <= 1500 ms setpoint",
                    slacker.after.Mean() <= 1500.0);
  gated = Gate("fig13a slacker after-step mean below fixed",
               slacker.after.Mean() < fixed.after.Mean()) &&
          gated;
  gated = Gate("fig13a slacker rate falls after the step",
               slacker.post_step_rate < slacker.pre_step_rate) &&
          gated;
  gated = Gate("fig13a both migrations complete",
               slacker.finished && fixed.finished) &&
          gated;
  return slacker.audited && fixed.audited && gated ? 0 : 1;
}
