// Consolidation — the paper's second use of migration (§1.3): packing
// tenants from lightly loaded servers onto fewer machines so spare
// servers can be shut down or repurposed.
//
// Three servers each host one quiet tenant. Overnight traffic is low,
// so the operator consolidates everything onto server 0, migrating the
// two remote tenants one after another with Slacker. The workloads keep
// running throughout; afterwards servers 1 and 2 are empty and the
// shared server still meets the SLA.
//
// Build & run:  ./build/examples/consolidation

#include <cstdio>

#include "src/sim/simulator.h"
#include "src/sla/sla.h"
#include "src/slacker/cluster.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

using namespace slacker;

int main() {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 3;
  Cluster cluster(&sim, cluster_options);
  const sla::SlaSpec sla{95.0, 1500.0};

  std::vector<std::unique_ptr<workload::YcsbWorkload>> workloads;
  std::vector<std::unique_ptr<workload::ClientPool>> pools;
  for (uint64_t id : {1, 2, 3}) {
    engine::TenantConfig tenant;
    tenant.tenant_id = id;
    tenant.layout.record_count = 192 * 1024;  // 192 MiB each.
    tenant.buffer_pool_bytes = 24 * kMiB;
    auto db = cluster.AddTenant(/*server_id=*/id - 1, tenant);
    if (!db.ok()) return 1;
    (*db)->WarmBufferPool();
    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = 1.2;  // Overnight trickle.
    workloads.push_back(
        std::make_unique<workload::YcsbWorkload>(ycsb, id, id * 47));
    pools.push_back(std::make_unique<workload::ClientPool>(
        &sim, workloads.back().get(), &cluster,
        cluster.MakeLatencyObserver()));
    cluster.AttachClientPool(id, pools.back().get());
    pools.back()->Start();
  }
  sim.RunUntil(30.0);

  std::printf("== consolidating tenants 2 and 3 onto server 0\n");
  for (uint64_t tenant : {2, 3}) {
    MigrationOptions migration;
    migration.pid.setpoint = 800.0;
    migration.pid.output_max = 30.0;
    migration.prepare.base_seconds = 1.0;
    // Lightly loaded servers: the controller should discover there is
    // plenty of slack and run near full speed (§4.2.3's windup case).
    MigrationReport report;
    bool done = false;
    const Status status = cluster.StartMigration(
        tenant, 0, migration, [&](const MigrationReport& r) {
          report = r;
          done = true;
        });
    if (!status.ok()) {
      std::fprintf(stderr, "migration of %llu failed: %s\n",
                   static_cast<unsigned long long>(tenant),
                   status.ToString().c_str());
      return 1;
    }
    while (!done) sim.RunUntil(sim.Now() + 2.0);
    std::printf("  tenant %llu -> server 0: %.0f s at %.1f MB/s, "
                "downtime %.0f ms, digests %s\n",
                static_cast<unsigned long long>(tenant),
                report.DurationSeconds(), report.AverageRateMbps(),
                report.downtime_ms, report.digest_match ? "match" : "DIFFER");
  }

  sim.RunUntil(sim.Now() + 60.0);
  for (auto& pool : pools) pool->Stop();
  sim.RunUntil(sim.Now() + 10.0);

  std::printf("== result\n");
  for (uint64_t server = 0; server < 3; ++server) {
    const auto tenants = cluster.directory()->TenantsOn(server);
    std::printf("  server %llu hosts %zu tenant(s)%s\n",
                static_cast<unsigned long long>(server), tenants.size(),
                tenants.empty() ? "  -> can be powered down" : "");
  }
  bool sla_ok = true;
  for (int i = 0; i < 3; ++i) {
    PercentileTracker tail;
    for (const auto& p : pools[i]->latency_series().points()) {
      if (p.t >= sim.Now() - 60.0) tail.Add(p.value);
    }
    const bool ok = sla::Satisfies(sla, tail);
    sla_ok = sla_ok && ok && pools[i]->stats().failed == 0;
    std::printf("  tenant %d: p95 %.0f ms on consolidated server [%s]\n",
                i + 1, tail.Percentile(95), ok ? "SLA ok" : "VIOLATE");
  }
  std::printf("done: %s\n", sla_ok ? "success" : "PROBLEM");
  return sla_ok ? 0 : 1;
}
