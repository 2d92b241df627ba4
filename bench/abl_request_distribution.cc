// Ablation: how the request distribution moves the migration slack. The
// paper's workload is uniform ("applied to random table rows"); real
// tenants are often Zipfian. Skewed access concentrates the working set
// in the buffer pool, cutting the tenant's disk demand — leaving *more*
// slack for migration at the same transaction rate. This bench measures
// baseline disk utilization and the latency cost of a 20 MB/s migration
// under uniform vs Zipfian vs latest-skewed access.

#include <cstdio>
#include <string>

#include "bench/fleet.h"
#include "src/common/invariant.h"

namespace slacker::bench {
namespace {

struct DistResult {
  double baseline_util = 0.0;
  double hit_rate = 0.0;
  double migration_latency = 0.0;
  bool audited = false;
};

DistResult Run(workload::KeyDistribution dist) {
  // The scenario pins its own seed: the pool's salt is its seed.
  ExperimentOptions pinned;
  pinned.seed = 0;
  Fleet fleet(pinned, PaperClusterOptions(), /*metrics=*/false);
  sim::Simulator* sim = fleet.sim();
  Cluster* cluster = fleet.cluster();
  engine::TenantConfig tenant =
      PaperTenantConfig(PaperConfig::kEvaluation, 1, 1.0);
  fleet.AddTenant(0, tenant);

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.distribution = dist;
  ycsb.mean_interarrival = PaperInterarrival(PaperConfig::kEvaluation);
  fleet.AddPool(1, ycsb, /*seed_salt=*/17);

  // Warm-up includes cache adaptation for the skewed distributions.
  storage::BufferPool* pages = cluster->TenantOn(0, 1)->buffer_pool();
  sim->RunUntil(60.0);
  cluster->server(0)->disk()->ResetStats();
  pages->ResetStats();
  sim->RunUntil(120.0);

  DistResult result;
  result.baseline_util = cluster->server(0)->disk()->Utilization();
  result.hit_rate = pages->HitRate();

  MigrationOptions migration;
  migration.throttle = ThrottleKind::kFixed;
  migration.fixed_rate_mbps = 20.0;
  migration.backup.chunk_bytes = 256 * kKiB;
  migration.prepare.base_seconds = 2.0;
  MigrationReport report;
  const SimTime start = sim->Now();
  // A migration that fails to start or finish invalidates the whole
  // experiment; fail loudly.
  SLACKER_CHECK(fleet.RunMigration(migration, &report, 1000.0),
                "migration did not finish");
  result.migration_latency =
      fleet.LatenciesBetween(start, sim->Now()).Mean();
  result.audited = fleet.Finish();
  return result;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using namespace slacker;
  // Flags are checked but unused: the scenario pins its own seeds and
  // options, so it has no trace or metrics to write.
  FleetFlags flags;
  flags.takes_trace = false;
  ParseFleetFlags(argc, argv, &flags);

  PrintHeader("Ablation", "request distribution vs migration slack "
              "(same txn rate, 20 MB/s migration)");
  std::printf("  %-12s %14s %12s %20s\n", "distribution", "baseline util",
              "hit rate", "latency w/ migration");
  DistResult uniform, zipf;
  bool audited = true;
  struct Named {
    const char* name;
    workload::KeyDistribution dist;
  };
  for (const Named& d :
       {Named{"uniform", workload::KeyDistribution::kUniform},
        Named{"zipfian", workload::KeyDistribution::kZipfian},
        Named{"latest", workload::KeyDistribution::kLatest}}) {
    const DistResult r = Run(d.dist);
    std::printf("  %-12s %13.2f %12.2f %17.0f ms\n", d.name, r.baseline_util,
                r.hit_rate, r.migration_latency);
    if (d.dist == workload::KeyDistribution::kUniform) uniform = r;
    if (d.dist == workload::KeyDistribution::kZipfian) zipf = r;
    audited = r.audited && audited;
  }
  PrintRow("skew raises hit rate", "hot rows stay cached",
           zipf.hit_rate > uniform.hit_rate + 0.1 ? "yes" : "NO");
  PrintRow("skew frees migration slack",
           "lower tenant disk demand -> cheaper migration",
           zipf.migration_latency < uniform.migration_latency ? "yes" : "NO");
  return audited ? 0 : 1;
}
