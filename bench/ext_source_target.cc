// §6 "Throttling Both Source and Target": when the *target* server
// hosts its own busy tenants, feeding the controller only the source's
// latency lets the migration trample the target's neighbours. The
// max(source, target) variant gives the rate-setting role to whichever
// server has the least slack.

#include <cstdio>

#include "bench/fleet.h"

namespace slacker::bench {
namespace {

struct Result {
  double target_neighbor_mean = 0.0;
  double target_neighbor_p99 = 0.0;
  double avg_speed = 0.0;
  bool finished = false;
  bool audited = false;
};

Result Run(const ExperimentOptions& flags, bool use_target_latency) {
  ExperimentOptions options = flags;
  options.config = PaperConfig::kEvaluation;
  Fleet bed(options);

  // A busy neighbour tenant on the *target* server (id 99): it consumes
  // most of that server's disk, so the target, not the source, is the
  // migration bottleneck.
  engine::TenantConfig neighbor =
      PaperTenantConfig(PaperConfig::kEvaluation, 99, 1.0);
  bed.AddTenant(1, neighbor);
  workload::YcsbConfig ycsb;
  ycsb.record_count = neighbor.layout.record_count;
  ycsb.mean_interarrival = 0.11;  // ~2.3x the eval rate: busy server.
  // Salt 735: seed 777 at the default --seed 42.
  bed.AddPool(99, ycsb, /*seed_salt=*/735);
  const workload::ClientPool& neighbor_pool = *bed.pools().back();
  bed.sim()->RunUntil(bed.sim()->Now() + 20.0);

  MigrationOptions migration = bed.BaseMigration();
  migration.pid.setpoint = 1000.0;
  migration.use_target_latency = use_target_latency;

  MigrationReport report;
  const SimTime start = bed.sim()->Now();
  Result result;
  result.finished = bed.RunMigration(migration, &report, 3000.0);
  const SimTime end = bed.sim()->Now();
  result.avg_speed = report.AverageRateMbps();

  PercentileTracker neighbor_lat;
  for (const auto& p : neighbor_pool.latency_series().points()) {
    if (p.t >= start + (end - start) * 0.25 && p.t <= end) {
      neighbor_lat.Add(p.value);
    }
  }
  result.target_neighbor_mean = neighbor_lat.Mean();
  result.target_neighbor_p99 = neighbor_lat.Percentile(99);
  result.audited = bed.Finish();
  return result;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);

  Result source_only = Run(flags.options, /*use_target_latency=*/false);
  Result max_variant = Run(flags.options, /*use_target_latency=*/true);

  PrintHeader("Extension (§6)", "max(source, target) latency feedback");
  PrintRow("target-neighbour latency, source-only feedback",
           "unprotected (controller blind to target)",
           FormatMs(source_only.target_neighbor_mean) + " mean, p99 " +
               FormatMs(source_only.target_neighbor_p99));
  PrintRow("target-neighbour latency, max(src,tgt)",
           "held near the setpoint",
           FormatMs(max_variant.target_neighbor_mean) + " mean, p99 " +
               FormatMs(max_variant.target_neighbor_p99));
  PrintRow("variant protects the target", "yes",
           max_variant.target_neighbor_mean <
                   source_only.target_neighbor_mean
               ? "yes"
               : "NO");
  PrintRow("price: migration speed", "least-slack server governs",
           FormatMbps(source_only.avg_speed) + " -> " +
               FormatMbps(max_variant.avg_speed));
  return source_only.audited && max_variant.audited ? 0 : 1;
}
