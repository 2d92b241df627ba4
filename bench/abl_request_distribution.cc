// Ablation: how the request distribution moves the migration slack. The
// paper's workload is uniform ("applied to random table rows"); real
// tenants are often Zipfian. Skewed access concentrates the working set
// in the buffer pool, cutting the tenant's disk demand — leaving *more*
// slack for migration at the same transaction rate. This bench measures
// baseline disk utilization and the latency cost of a 20 MB/s migration
// under uniform vs Zipfian vs latest-skewed access.

#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "src/common/invariant.h"
#include "src/workload/client_pool.h"

namespace slacker::bench {
namespace {

struct DistResult {
  double baseline_util = 0.0;
  double hit_rate = 0.0;
  double migration_latency = 0.0;
};

DistResult Run(workload::KeyDistribution dist) {
  sim::Simulator sim;
  Cluster cluster(&sim, PaperClusterOptions());
  engine::TenantConfig tenant =
      PaperTenantConfig(PaperConfig::kEvaluation, 1, 1.0);
  auto db = cluster.AddTenant(0, tenant);
  (*db)->WarmBufferPool();

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.distribution = dist;
  ycsb.mean_interarrival = PaperInterarrival(PaperConfig::kEvaluation);
  workload::YcsbWorkload workload(ycsb, 1, 17);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  pool.Start();

  // Warm-up includes cache adaptation for the skewed distributions.
  sim.RunUntil(60.0);
  cluster.server(0)->disk()->ResetStats();
  (*db)->buffer_pool()->ResetStats();
  sim.RunUntil(120.0);

  DistResult result;
  result.baseline_util = cluster.server(0)->disk()->Utilization();
  result.hit_rate = (*db)->buffer_pool()->HitRate();

  MigrationOptions migration;
  migration.throttle = ThrottleKind::kFixed;
  migration.fixed_rate_mbps = 20.0;
  migration.backup.chunk_bytes = 256 * kKiB;
  migration.prepare.base_seconds = 2.0;
  MigrationReport report;
  bool done = false;
  const Status started =
      cluster.StartMigration(1, 1, migration, [&](const MigrationReport& r) {
        report = r;
        done = true;
      });
  // A failed start invalidates the whole experiment; fail loudly.
  SLACKER_CHECK(started.ok(), started.ToString());
  const SimTime start = sim.Now();
  while (!done && sim.Now() < start + 1000.0) sim.RunUntil(sim.Now() + 5.0);
  PercentileTracker lat;
  for (const auto& p : pool.latency_series().points()) {
    if (p.t >= start) lat.Add(p.value);
  }
  result.migration_latency = lat.Mean();
  pool.Stop();
  return result;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using namespace slacker;
  // Flags are checked but unused: the scenario pins its own seeds.
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);

  PrintHeader("Ablation", "request distribution vs migration slack "
              "(same txn rate, 20 MB/s migration)");
  std::printf("  %-12s %14s %12s %20s\n", "distribution", "baseline util",
              "hit rate", "latency w/ migration");
  DistResult uniform, zipf;
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
  }
  PrintRow("skew raises hit rate", "hot rows stay cached",
           zipf.hit_rate > uniform.hit_rate + 0.1 ? "yes" : "NO");
  PrintRow("skew frees migration slack",
           "lower tenant disk demand -> cheaper migration",
           zipf.migration_latency < uniform.migration_latency ? "yes" : "NO");
  return 0;
}
