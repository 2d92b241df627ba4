// Tests for the cluster metrics snapshots and the PublishMetrics sampler.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/slacker/cluster.h"
#include "src/slacker/metrics.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

struct Rig {
  sim::Simulator sim;
  Cluster cluster;

  Rig() : cluster(&sim, ClusterOptions{}) {
    engine::TenantConfig tenant;
    tenant.tenant_id = 1;
    tenant.layout.record_count = 16 * 1024;
    tenant.buffer_pool_bytes = 2 * kMiB;
    const auto added = cluster.AddTenant(0, tenant);
    EXPECT_TRUE(added.ok()) << added.status().ToString();
  }
};

TEST(MetricsTest, SnapshotCoversServersAndTenants) {
  Rig rig;
  rig.sim.RunUntil(1.0);
  const ClusterMetrics metrics = CollectMetrics(&rig.cluster);
  ASSERT_EQ(metrics.servers.size(), 3u);
  ASSERT_EQ(metrics.servers[0].tenants.size(), 1u);
  const TenantMetrics& t = metrics.servers[0].tenants[0];
  EXPECT_EQ(t.tenant_id, 1u);
  EXPECT_EQ(t.rows, 16 * 1024u);
  EXPECT_GT(t.data_bytes, 0u);
  EXPECT_FALSE(t.frozen);
  EXPECT_FALSE(t.migrating);
  EXPECT_EQ(metrics.active_migrations, 0u);
  EXPECT_TRUE(metrics.servers[1].tenants.empty());
}

TEST(MetricsTest, MigrationVisibleInSnapshot) {
  Rig rig;
  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 2.0;  // Slow, so we can observe it.
  options.prepare.base_seconds = 0.5;
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, options, nullptr).ok());
  rig.sim.RunUntil(2.0);
  const ClusterMetrics metrics = CollectMetrics(&rig.cluster);
  EXPECT_EQ(metrics.active_migrations, 1u);
  EXPECT_TRUE(metrics.servers[0].tenants[0].migrating);
  // The staging instance on server 1 is frozen, not migrating.
  ASSERT_EQ(metrics.servers[1].tenants.size(), 1u);
  EXPECT_TRUE(metrics.servers[1].tenants[0].frozen);
  const std::string dump = metrics.ToString();
  EXPECT_NE(dump.find("[migrating]"), std::string::npos);
  EXPECT_NE(dump.find("[frozen]"), std::string::npos);
}

TEST(MetricsTest, PublishMetricsAddsOnePointPerTickMatchingTheSnapshot) {
  Rig rig;
  workload::YcsbConfig ycsb;
  ycsb.record_count = 16 * 1024;
  ycsb.mean_interarrival = 0.2;
  workload::YcsbWorkload workload(ycsb, 1, 3);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();
  MigrationOptions migration;
  migration.throttle = ThrottleKind::kFixed;
  migration.fixed_rate_mbps = 2.0;
  migration.prepare.base_seconds = 0.5;
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, migration, nullptr).ok());

  obs::MetricRegistry registry;
  std::vector<ClusterMetrics> snapshots;
  sim::PeriodicTimer timer(&rig.sim, 5.0, [&](SimTime) {
    PublishMetrics(&rig.cluster, &registry);
    // Taken at the same instant; the snapshot the sampler published.
    snapshots.push_back(CollectMetrics(&rig.cluster));
  });
  timer.Start();
  rig.sim.RunUntil(31.0);
  timer.Stop();
  pool.Stop();
  ASSERT_EQ(snapshots.size(), 6u);
  // The values move, so matching them per tick is not vacuous.
  EXPECT_GT(snapshots.back().servers[0].window_latency_ms, 0.0);
  EXPECT_GT(snapshots.back().servers[0].disk_utilization, 0.0);
  EXPECT_EQ(snapshots[0].active_migrations, 1u);

  std::map<std::string, const obs::MetricSeries*> series;
  for (const auto& entry : registry.Entries()) {
    ASSERT_EQ(entry.kind, obs::MetricRegistry::Kind::kGauge)
        << entry.full_name;
    series[entry.full_name] = entry.series;
  }
  EXPECT_EQ(series.size(), 4 * snapshots[0].servers.size() + 1);
  for (size_t tick = 0; tick < snapshots.size(); ++tick) {
    const ClusterMetrics& snap = snapshots[tick];
    EXPECT_DOUBLE_EQ(snap.time, 5.0 * static_cast<double>(tick + 1));
    auto expect_point = [&](const std::string& name, double value) {
      ASSERT_TRUE(series.count(name)) << name;
      const auto& points = series[name]->points;
      ASSERT_EQ(points.size(), snapshots.size()) << name;
      EXPECT_EQ(points[tick].first, snap.time) << name;
      EXPECT_EQ(points[tick].second, value) << name << " tick " << tick;
    };
    for (const ServerMetrics& s : snap.servers) {
      const std::string labels = "{server=" + std::to_string(s.server_id) + "}";
      expect_point("disk_util" + labels, s.disk_utilization);
      expect_point("cpu_util" + labels, s.cpu_utilization);
      expect_point("disk_queue_depth" + labels,
                   static_cast<double>(s.disk_queue_depth));
      expect_point("window_latency_ms" + labels, s.window_latency_ms);
    }
    expect_point("active_migrations",
                 static_cast<double>(snap.active_migrations));
  }
}

TEST(MetricsTest, WindowLatencyReflectsWorkload) {
  Rig rig;
  workload::YcsbConfig ycsb;
  ycsb.record_count = 16 * 1024;
  ycsb.mean_interarrival = 0.2;
  workload::YcsbWorkload workload(ycsb, 1, 3);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();
  rig.sim.RunUntil(20.0);
  const ClusterMetrics metrics = CollectMetrics(&rig.cluster);
  EXPECT_GT(metrics.servers[0].window_latency_ms, 0.0);
  pool.Stop();
}

}  // namespace
}  // namespace slacker
