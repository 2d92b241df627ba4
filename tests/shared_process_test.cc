// Tests for the shared-process multitenancy extension: page-id
// namespacing, cross-tenant buffer contention (the interference the
// paper's process-level choice avoids, §2.1), and migrations on a
// shared-process cluster.

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/slacker/cluster.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

engine::TenantConfig SmallTenant(uint64_t id) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 1024;  // 64 pages.
  config.buffer_pool_bytes = 16 * 16 * kKiB;
  return config;
}

struct Rig {
  sim::Simulator sim;
  resource::DiskModel disk{&sim, resource::DiskOptions{}};
  resource::CpuModel cpu{&sim, resource::CpuOptions{}};
};

TEST(SharedPoolTest, PageIdsNamespacedPerTenant) {
  Rig rig;
  storage::BufferPool shared(storage::BufferPoolOptions{64});
  engine::TenantDb a(&rig.sim, &rig.disk, &rig.cpu, SmallTenant(1), &shared);
  engine::TenantDb b(&rig.sim, &rig.disk, &rig.cpu, SmallTenant(2), &shared);
  a.Load();
  b.Load();
  EXPECT_TRUE(a.uses_shared_pool());
  // Both tenants read their own key 0 (page 0): two distinct frames.
  a.ExecuteOp(engine::Operation{engine::OpType::kRead, 0}, nullptr);
  b.ExecuteOp(engine::Operation{engine::OpType::kRead, 0}, nullptr);
  rig.sim.RunUntil(1.0);
  EXPECT_EQ(shared.resident_pages(), 2u);
  EXPECT_EQ(shared.misses(), 2u);
  // Re-reads hit their own copies.
  a.ExecuteOp(engine::Operation{engine::OpType::kRead, 0}, nullptr);
  b.ExecuteOp(engine::Operation{engine::OpType::kRead, 0}, nullptr);
  rig.sim.RunUntil(2.0);
  EXPECT_EQ(shared.hits(), 2u);
}

TEST(SharedPoolTest, NoisyNeighborEvictsVictimPages) {
  // Victim fits comfortably in a private pool; under a shared pool of
  // the same total size, a scanning neighbour flushes its pages.
  Rig rig;
  storage::BufferPool shared(storage::BufferPoolOptions{64});
  engine::TenantDb victim(&rig.sim, &rig.disk, &rig.cpu, SmallTenant(1),
                          &shared);
  engine::TenantDb neighbor(&rig.sim, &rig.disk, &rig.cpu, SmallTenant(2),
                            &shared);
  victim.Load();
  neighbor.Load();
  // Victim touches its working set (16 pages).
  for (uint64_t key = 0; key < 256; key += 16) {
    victim.ExecuteOp(engine::Operation{engine::OpType::kRead, key}, nullptr);
  }
  rig.sim.RunUntil(5.0);
  shared.ResetStats();
  // Victim re-touches: all hits (fits in pool).
  for (uint64_t key = 0; key < 256; key += 16) {
    victim.ExecuteOp(engine::Operation{engine::OpType::kRead, key}, nullptr);
  }
  rig.sim.RunUntil(10.0);
  EXPECT_EQ(shared.misses(), 0u);
  // Neighbour scans its whole table (64 pages > pool).
  for (uint64_t key = 0; key < 1024; key += 16) {
    neighbor.ExecuteOp(engine::Operation{engine::OpType::kRead, key},
                       nullptr);
  }
  rig.sim.RunUntil(20.0);
  shared.ResetStats();
  // Victim's working set is gone: misses again.
  for (uint64_t key = 0; key < 256; key += 16) {
    victim.ExecuteOp(engine::Operation{engine::OpType::kRead, key}, nullptr);
  }
  rig.sim.RunUntil(30.0);
  EXPECT_GT(shared.misses(), 10u);
}

TEST(SharedPoolTest, ProcessLevelIsolatesTheSameScenario) {
  // Same experiment with private pools: the neighbour's scan cannot
  // touch the victim's cache.
  Rig rig;
  engine::TenantDb victim(&rig.sim, &rig.disk, &rig.cpu, SmallTenant(1));
  engine::TenantDb neighbor(&rig.sim, &rig.disk, &rig.cpu, SmallTenant(2));
  victim.Load();
  neighbor.Load();
  for (uint64_t key = 0; key < 256; key += 16) {
    victim.ExecuteOp(engine::Operation{engine::OpType::kRead, key}, nullptr);
  }
  rig.sim.RunUntil(5.0);
  for (uint64_t key = 0; key < 1024; key += 16) {
    neighbor.ExecuteOp(engine::Operation{engine::OpType::kRead, key},
                       nullptr);
  }
  rig.sim.RunUntil(15.0);
  victim.buffer_pool()->ResetStats();
  for (uint64_t key = 0; key < 256; key += 16) {
    victim.ExecuteOp(engine::Operation{engine::OpType::kRead, key}, nullptr);
  }
  rig.sim.RunUntil(25.0);
  EXPECT_EQ(victim.buffer_pool()->misses(), 0u);
}

TEST(SharedProcessClusterTest, MigrationWorksUnderSharedPools) {
  sim::Simulator sim;
  ClusterOptions options;
  options.num_servers = 2;
  options.multitenancy = MultitenancyModel::kSharedProcess;
  options.shared_buffer_bytes = 16 * kMiB;
  Cluster cluster(&sim, options);

  engine::TenantConfig tenant = SmallTenant(1);
  tenant.layout.record_count = 32 * 1024;  // 32 MiB.
  ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());
  ASSERT_TRUE(cluster.AddTenant(0, SmallTenant(2)).ok());
  EXPECT_TRUE(cluster.TenantOn(0, 1)->uses_shared_pool());

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mean_interarrival = 0.3;
  workload::YcsbWorkload workload(ycsb, 1, 77);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  pool.Start();
  sim.RunUntil(5.0);

  MigrationOptions migration;
  migration.throttle = ThrottleKind::kFixed;
  migration.fixed_rate_mbps = 16.0;
  migration.prepare.base_seconds = 0.5;
  MigrationReport report;
  bool done = false;
  ASSERT_TRUE(cluster
                  .StartMigration(1, 1, migration,
                                  [&](const MigrationReport& r) {
                                    report = r;
                                    done = true;
                                  })
                  .ok());
  sim.RunUntil(120.0);
  pool.Stop();
  sim.RunUntil(140.0);
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_TRUE(report.digest_match);
  EXPECT_EQ(pool.stats().failed, 0u);
  // The moved tenant now pages through the *target's* shared pool.
  engine::TenantDb* moved = cluster.TenantOn(1, 1);
  ASSERT_NE(moved, nullptr);
  EXPECT_TRUE(moved->uses_shared_pool());
  // Of the two servers' shared pools, it is not the one tenant 2 still
  // pages through on the source.
  EXPECT_NE(moved->buffer_pool(), cluster.TenantOn(0, 2)->buffer_pool());
}

TEST(SharedPoolTest, WarmRespectsSharedCapacity) {
  Rig rig;
  storage::BufferPool shared(storage::BufferPoolOptions{32});
  engine::TenantDb a(&rig.sim, &rig.disk, &rig.cpu, SmallTenant(1), &shared);
  a.Load();
  a.WarmBufferPool();  // Table has 64 pages; pool holds 32.
  EXPECT_EQ(shared.resident_pages(), 32u);
}

}  // namespace
}  // namespace slacker
