// Server crash/restart: in-flight work fails fast with kUnavailable,
// nothing acked is ever lost (the binlog is the durable WAL), recovery
// replays from the last checkpoint + binlog suffix, and the recovered
// tenant only serves again once the recovery read has been charged.

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/slacker/cluster.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

engine::TenantConfig SmallTenant(uint64_t id = 1) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 16 * 1024;
  config.buffer_pool_bytes = 2 * kMiB;
  return config;
}

engine::TxnSpec UpdateTxn(uint64_t tenant_id, uint64_t key) {
  engine::TxnSpec spec;
  spec.tenant_id = tenant_id;
  spec.ops.push_back({engine::OpType::kUpdate, key, 0});
  return spec;
}

TEST(CrashRestartTest, CrashFailsInFlightOperations) {
  sim::Simulator sim;
  Cluster cluster(&sim, ClusterOptions{});
  ASSERT_TRUE(cluster.AddTenant(0, SmallTenant()).ok());
  engine::TenantDb* db = cluster.TenantOn(0, 1);

  Status observed;
  bool done = false;
  engine::TxnFrames frames;
  engine::ExecuteTransaction(&sim, db, UpdateTxn(1, 42), sim.Now(), &frames,
                             [&](const engine::TxnResult& r) {
                               observed = r.status;
                               done = true;
                             });
  // Crash strictly before the disk I/O completes.
  sim.After(1e-6, [&] { cluster.CrashServer(0); });
  sim.RunUntil(5.0);
  ASSERT_TRUE(done);
  EXPECT_EQ(observed.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(cluster.ServerUp(0));
  EXPECT_EQ(cluster.Resolve(1), nullptr);
  EXPECT_EQ(cluster.TenantOn(0, 1), nullptr);
}

TEST(CrashRestartTest, AckedWritesSurviveRestartViaWalReplay) {
  sim::Simulator sim;
  Cluster cluster(&sim, ClusterOptions{});
  ASSERT_TRUE(cluster.AddTenant(0, SmallTenant()).ok());

  workload::YcsbConfig ycsb;
  ycsb.record_count = 16 * 1024;
  ycsb.mean_interarrival = 0.1;  // Sustainable: the queue stays short.
  workload::YcsbWorkload workload(ycsb, 1, 77);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  pool.Start();
  sim.RunUntil(5.0);
  pool.Stop();
  sim.RunUntil(8.0);  // Drain queued + in-flight transactions.
  ASSERT_GT(pool.stats().completed, 20u);
  // Quiesced: anything still outstanding would keep writing to the
  // recovered instance and trivially change its digest.
  ASSERT_EQ(pool.queue_depth(), 0u);
  ASSERT_EQ(pool.busy_clients(), 0);

  const uint64_t digest_at_crash = cluster.TenantOn(0, 1)->StateDigest();
  cluster.CrashServer(0);
  EXPECT_EQ(cluster.Resolve(1), nullptr);
  cluster.RestartServer(0, 2.0);
  sim.RunUntil(30.0);

  ASSERT_TRUE(cluster.ServerUp(0));
  engine::TenantDb* recovered = cluster.Resolve(1);
  ASSERT_NE(recovered, nullptr);
  EXPECT_FALSE(recovered->frozen());
  EXPECT_EQ(recovered->StateDigest(), digest_at_crash);
  for (const auto& [key, acked] : pool.acked_writes()) {
    const storage::Record* row = recovered->table().Get(key);
    ASSERT_NE(row, nullptr) << "lost acked key " << key;
    EXPECT_GE(row->lsn, acked.lsn);
  }
}

TEST(CrashRestartTest, RecoveryUsesCheckpointPlusSuffix) {
  sim::Simulator sim;
  Cluster cluster(&sim, ClusterOptions{});
  ASSERT_TRUE(cluster.AddTenant(0, SmallTenant()).ok());

  workload::YcsbConfig ycsb;
  ycsb.record_count = 16 * 1024;
  ycsb.mean_interarrival = 0.1;
  workload::YcsbWorkload workload(ycsb, 1, 99);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  pool.Start();
  sim.RunUntil(3.0);
  pool.Stop();
  sim.RunUntil(6.0);

  ASSERT_TRUE(cluster.CheckpointTenant(1).ok());
  sim.RunUntil(8.0);  // Let the checkpoint write land.

  // More writes AFTER the checkpoint: recovery must replay the suffix.
  pool.Start();
  sim.RunUntil(11.0);
  pool.Stop();
  sim.RunUntil(14.0);
  ASSERT_EQ(pool.queue_depth(), 0u);
  ASSERT_EQ(pool.busy_clients(), 0);

  const uint64_t digest_at_crash = cluster.TenantOn(0, 1)->StateDigest();
  cluster.CrashServer(0);
  cluster.RestartServer(0, 1.0);
  sim.RunUntil(30.0);

  engine::TenantDb* recovered = cluster.Resolve(1);
  ASSERT_NE(recovered, nullptr);
  EXPECT_FALSE(recovered->frozen());
  EXPECT_EQ(recovered->StateDigest(), digest_at_crash);
}

TEST(CrashRestartTest, TenantIsFrozenUntilRecoveryReadCompletes) {
  sim::Simulator sim;
  Cluster cluster(&sim, ClusterOptions{});
  engine::TenantConfig big = SmallTenant();
  big.layout.record_count = 256 * 1024;  // A recovery read that takes time.
  ASSERT_TRUE(cluster.AddTenant(0, big).ok());

  cluster.CrashServer(0);
  cluster.RestartServer(0, 1.0);
  sim.RunUntil(1.01);  // Reboot fired; recovery read still in flight.
  ASSERT_TRUE(cluster.ServerUp(0));
  engine::TenantDb* recovering = cluster.TenantOn(0, 1);
  ASSERT_NE(recovering, nullptr);
  EXPECT_TRUE(recovering->frozen());
  sim.RunUntil(60.0);
  EXPECT_FALSE(recovering->frozen());
}

TEST(CrashRestartTest, DoubleCrashAndRepeatedRestartConverges) {
  sim::Simulator sim;
  Cluster cluster(&sim, ClusterOptions{});
  ASSERT_TRUE(cluster.AddTenant(0, SmallTenant()).ok());
  const uint64_t digest = cluster.TenantOn(0, 1)->StateDigest();

  cluster.CrashServer(0);
  cluster.CrashServer(0);  // Idempotent no-op.
  cluster.RestartServer(0, 1.0);
  sim.RunUntil(20.0);
  ASSERT_NE(cluster.Resolve(1), nullptr);

  // Crash again mid-life, restart again: still converges.
  cluster.CrashServer(0);
  cluster.RestartServer(0, 0.5);
  sim.RunUntil(40.0);
  engine::TenantDb* recovered = cluster.Resolve(1);
  ASSERT_NE(recovered, nullptr);
  EXPECT_FALSE(recovered->frozen());
  EXPECT_EQ(recovered->StateDigest(), digest);
}

TEST(CrashRestartTest, PartitionDropsMessagesUntilHealed) {
  sim::Simulator sim;
  Cluster cluster(&sim, ClusterOptions{});
  ASSERT_TRUE(cluster.AddTenant(0, SmallTenant()).ok());
  cluster.SetPartitioned(0, 1, true);

  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 16.0;
  options.prepare.base_seconds = 0.5;
  options.timeout_seconds = 10.0;
  MigrationReport report;
  bool done = false;
  ASSERT_TRUE(cluster
                  .StartMigration(1, 1, options,
                                  [&](const MigrationReport& r) {
                                    report = r;
                                    done = true;
                                  })
                  .ok());
  sim.RunUntil(30.0);
  ASSERT_TRUE(done);
  EXPECT_EQ(report.status.code(), StatusCode::kAborted);  // Watchdog.
  EXPECT_EQ(*cluster.directory()->Lookup(1), 0u);

  // Heal; a fresh attempt completes.
  cluster.SetPartitioned(0, 1, false);
  done = false;
  ASSERT_TRUE(cluster
                  .StartMigration(1, 1, options,
                                  [&](const MigrationReport& r) {
                                    report = r;
                                    done = true;
                                  })
                  .ok());
  sim.RunUntil(120.0);
  ASSERT_TRUE(done);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(*cluster.directory()->Lookup(1), 1u);
}

TEST(CrashRestartTest, MigrationToDownServerIsRefused) {
  sim::Simulator sim;
  Cluster cluster(&sim, ClusterOptions{});
  ASSERT_TRUE(cluster.AddTenant(0, SmallTenant()).ok());
  cluster.CrashServer(1);
  MigrationOptions options;
  const Status s =
      cluster.StartMigration(1, 1, options, [](const MigrationReport&) {});
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace slacker
