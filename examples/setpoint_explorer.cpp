// Setpoint explorer — §6 "Choosing the Setpoint Latency" as a tool.
//
// For a given tenant and workload, sweeps the latency setpoint and
// reports the resulting migration speed, duration, achieved latency,
// and latency stability, then prints the §6 guidance: the knee beyond
// which higher setpoints stop buying speed and only add oscillation.
//
// Build & run:  ./build/examples/setpoint_explorer

#include <cstdio>
#include <vector>

#include "src/sim/simulator.h"
#include "src/slacker/cluster.h"
#include "src/common/invariant.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

using namespace slacker;

namespace {

struct SweepPoint {
  double setpoint;
  double speed;
  double latency;
  double stddev;
  double duration;
  /// The migration finished OK with matching source/target digests.
  bool ok;
};

SweepPoint RunOne(double setpoint) {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);

  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 256 * 1024;  // 256 MiB.
  tenant.buffer_pool_bytes = 32 * kMiB;
  auto db = cluster.AddTenant(0, tenant);
  (*db)->WarmBufferPool();

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mean_interarrival = 0.3;
  workload::YcsbWorkload workload(ycsb, 1, 7);
  workload::ClientPool clients(&sim, &workload, &cluster,
                               cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &clients);
  clients.Start();
  sim.RunUntil(20.0);

  MigrationOptions migration;
  migration.pid.setpoint = setpoint;
  migration.pid.output_max = 30.0;
  migration.prepare.base_seconds = 1.0;
  MigrationReport report;
  bool done = false;
  const Status started =
      cluster.StartMigration(1, 1, migration, [&](const MigrationReport& r) {
        report = r;
        done = true;
      });
  // A failed start invalidates the exploration point; fail loudly.
  SLACKER_CHECK(started.ok(), started.ToString());
  const SimTime start = sim.Now();
  while (!done && sim.Now() < start + 2000.0) sim.RunUntil(sim.Now() + 2.0);
  const SimTime end = sim.Now();
  clients.Stop();

  PercentileTracker regulated;
  for (const auto& p : clients.latency_series().points()) {
    if (p.t >= start + (end - start) * 0.25 && p.t <= end) {
      regulated.Add(p.value);
    }
  }
  const bool ok = done && report.status.ok() && report.digest_match;
  return SweepPoint{setpoint, report.AverageRateMbps(), regulated.Mean(),
                    regulated.Stddev(), report.DurationSeconds(), ok};
}

}  // namespace

int main() {
  std::printf("setpoint sweep (256 MiB tenant, ~3.3 txn/s):\n");
  std::printf("  %10s %12s %12s %12s %10s\n", "setpoint", "avg speed",
              "latency", "stddev", "duration");
  std::vector<SweepPoint> sweep;
  bool all_ok = true;
  for (double setpoint : {250.0, 500.0, 1000.0, 1500.0, 2000.0, 3000.0}) {
    sweep.push_back(RunOne(setpoint));
    const SweepPoint& p = sweep.back();
    std::printf("  %7.0f ms %9.1f MB/s %9.0f ms %9.0f ms %8.0f s%s\n",
                p.setpoint, p.speed, p.latency, p.stddev, p.duration,
                p.ok ? "" : "  MIGRATION FAILED");
    all_ok = all_ok && p.ok;
  }

  // §6 guidance: find the knee — the first setpoint whose speed gain
  // over the previous one drops below 15%.
  size_t knee = sweep.size() - 1;
  for (size_t i = 1; i < sweep.size(); ++i) {
    if (sweep[i].speed < sweep[i - 1].speed * 1.15) {
      knee = i - 1;
      break;
    }
  }
  std::printf("\nguidance (§6):\n");
  std::printf("  knee setpoint: ~%.0f ms (%.1f MB/s) — higher setpoints "
              "buy little speed,\n  only latency variance "
              "(%.0f -> %.0f ms stddev across the sweep).\n",
              sweep[knee].setpoint, sweep[knee].speed, sweep.front().stddev,
              sweep.back().stddev);
  std::printf("  - migrations must finish fast  -> setpoint near the knee\n");
  std::printf("  - latency stability paramount  -> conservative setpoint "
              "below the knee\n");
  // A sweep point whose migration failed or diverged is no data point:
  // fail the run (ctest runs this example).
  return all_ok ? 0 : 1;
}
