// Hotspot relief — the paper's Figure 2/3 motivation end-to-end.
//
// Two tenants share server 0 and comfortably meet a p95 <= 1 s SLA.
// Then tenant 2's traffic triples (a flash crowd): the server
// overloads and BOTH tenants start violating their SLA — including the
// innocent neighbour. The operator migrates the hot tenant to the idle
// server 1 using Slacker's latency-aware throttle, so the migration
// itself does not deepen the hotspot (Figure 3's trap). After the
// handover, both tenants meet the SLA again.
//
// Build & run:  ./build/examples/hotspot_relief

#include <cstdio>

#include "src/sim/simulator.h"
#include "src/sla/sla.h"
#include "src/slacker/cluster.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

using namespace slacker;

namespace {

void Report(const char* phase, sim::Simulator& sim,
            workload::ClientPool& t1, workload::ClientPool& t2,
            double window, const sla::SlaSpec& sla) {
  auto eval = [&](workload::ClientPool& pool) {
    PercentileTracker tracker;
    for (const auto& p : pool.latency_series().points()) {
      if (p.t >= sim.Now() - window) tracker.Add(p.value);
    }
    return tracker;
  };
  const PercentileTracker a = eval(t1), b = eval(t2);
  std::printf("%-22s tenant1 p95=%6.0f ms [%s]   tenant2 p95=%6.0f ms [%s]\n",
              phase, a.Percentile(95),
              sla::Satisfies(sla, a) ? "SLA ok " : "VIOLATE",
              b.Percentile(95),
              sla::Satisfies(sla, b) ? "SLA ok " : "VIOLATE");
}

}  // namespace

int main() {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  cluster_options.disk.seek_time = 0.008;
  Cluster cluster(&sim, cluster_options);
  const sla::SlaSpec sla{95.0, 1000.0};

  // Two 256 MiB tenants, 32 MiB buffers, on server 0.
  std::vector<std::unique_ptr<workload::YcsbWorkload>> workloads;
  std::vector<std::unique_ptr<workload::ClientPool>> pools;
  for (uint64_t id : {1, 2}) {
    engine::TenantConfig tenant;
    tenant.tenant_id = id;
    tenant.layout.record_count = 256 * 1024;
    tenant.buffer_pool_bytes = 32 * kMiB;
    auto db = cluster.AddTenant(0, tenant);
    if (!db.ok()) return 1;
    (*db)->WarmBufferPool();
    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = 0.5;  // 2 txn/s each: healthy.
    workloads.push_back(
        std::make_unique<workload::YcsbWorkload>(ycsb, id, id * 31));
    pools.push_back(std::make_unique<workload::ClientPool>(
        &sim, workloads.back().get(), &cluster,
        cluster.MakeLatencyObserver()));
    cluster.AttachClientPool(id, pools.back().get());
    pools.back()->Start();
  }

  std::printf("== phase 1: stable multitenant server (Fig. 2a)\n");
  sim.RunUntil(60.0);
  Report("  steady state:", sim, *pools[0], *pools[1], 40.0, sla);

  std::printf("== phase 2: tenant 2 flash crowd, 5x traffic (Fig. 2b-c)\n");
  workloads[1]->ScaleArrivalRate(5.0);
  sim.RunUntil(140.0);
  Report("  overloaded:", sim, *pools[0], *pools[1], 40.0, sla);

  std::printf("== phase 3: migrate tenant 2 away with Slacker\n");
  MigrationOptions migration;
  migration.pid.setpoint = 1500.0;  // Keep interference bounded.
  migration.pid.output_max = 30.0;
  migration.prepare.base_seconds = 1.0;
  MigrationReport report;
  bool done = false;
  const Status status = cluster.StartMigration(
      2, 1, migration, [&](const MigrationReport& r) {
        report = r;
        done = true;
      });
  if (!status.ok()) {
    std::fprintf(stderr, "migration failed to start: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  while (!done) sim.RunUntil(sim.Now() + 2.0);
  std::printf("  migrated in %.0f s at %.1f MB/s, downtime %.0f ms, "
              "replicas agree: %s\n",
              report.DurationSeconds(), report.AverageRateMbps(),
              report.downtime_ms, report.digest_match ? "yes" : "NO");

  std::printf("== phase 4: hotspot relieved (each tenant on its own "
              "server)\n");
  sim.RunUntil(sim.Now() + 80.0);
  Report("  after migration:", sim, *pools[0], *pools[1], 60.0, sla);
  for (auto& pool : pools) pool->Stop();
  sim.RunUntil(sim.Now() + 10.0);

  const bool ok = report.status.ok() && report.digest_match &&
                  pools[0]->stats().failed == 0 &&
                  pools[1]->stats().failed == 0;
  std::printf("done: %s (t1 %llu txns, t2 %llu txns, 0 failures)\n",
              ok ? "success" : "PROBLEM",
              static_cast<unsigned long long>(pools[0]->stats().completed),
              static_cast<unsigned long long>(pools[1]->stats().completed));
  return ok ? 0 : 1;
}
