// Calibration probe: prints the anchor measurements both paper configs
// are tuned against (baseline latency, disk utilization, fixed-rate
// latency response). Useful when changing resource-model parameters;
// the figure benches assume these anchors hold.

#include <cstdio>

#include "bench/fleet.h"

namespace slacker::bench {
namespace {

/// Returns false if any fleet's audit failed.
bool Probe(const ExperimentOptions& flags, PaperConfig config,
           const char* name) {
  std::printf("\n--- %s ---\n", name);
  ExperimentOptions options = flags;
  options.config = config;
  Fleet bed(options);
  bool audited = true;

  const PercentileTracker baseline = bed.RunBaseline(120.0);
  resource::DiskModel* disk = bed.cluster()->server(0)->disk();
  std::printf("baseline: mean=%.0fms p95=%.0fms p99=%.0fms n=%zu "
              "disk_util=%.2f buffer_hit=%.2f\n",
              baseline.Mean(), baseline.Percentile(95),
              baseline.Percentile(99), baseline.count(), disk->Utilization(),
              bed.cluster()->TenantOn(0, 1)->buffer_pool()->HitRate());

  for (double rate : {4.0, 8.0, 12.0, 16.0, 20.0, 25.0}) {
    Fleet bed2(options);
    MigrationOptions mig = bed2.BaseMigration();
    mig.throttle = ThrottleKind::kFixed;
    mig.fixed_rate_mbps = rate;
    MigrationReport report;
    const SimTime start = bed2.sim()->Now();
    const bool done = bed2.RunMigration(mig, &report, 600.0);
    const PercentileTracker lat = bed2.LatenciesBetween(start, bed2.sim()->Now());
    std::printf("fixed %5.1f MB/s: done=%d dur=%5.0fs mean=%6.0fms "
                "p99=%7.0fms stddev=%6.0f rounds=%d down=%.0fms\n",
                rate, done, report.DurationSeconds(), lat.Mean(),
                lat.Percentile(99), lat.Stddev(), report.delta_rounds,
                report.downtime_ms);
    audited = bed2.Finish() && audited;
  }
  return bed.Finish() && audited;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);
  bool audited = Probe(flags.options, PaperConfig::kCaseStudy,
                       "case study (256MB buffer, ~9 txn/s)");
  audited = Probe(flags.options, PaperConfig::kEvaluation,
                  "evaluation (128MB buffer, ~2.7 txn/s)") &&
            audited;
  return audited ? 0 : 1;
}
