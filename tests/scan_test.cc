// Tests for range scans (YCSB workload E): page touch accounting,
// buffer interaction, workload generation, and scans running through
// full transactions and migrations.

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/engine/transaction.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/sim/simulator.h"
#include "src/slacker/cluster.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker::engine {
namespace {

TenantConfig SmallConfig() {
  TenantConfig config;
  config.tenant_id = 1;
  config.layout.record_count = 1024;  // 64 pages of 16 rows.
  config.buffer_pool_bytes = 16 * 16 * kKiB;
  return config;
}

struct Rig {
  sim::Simulator sim;
  resource::DiskModel disk{&sim, resource::DiskOptions{}};
  resource::CpuModel cpu{&sim, resource::CpuOptions{}};
};

TEST(ScanTest, TouchesAllSpannedPages) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  // Scan 64 rows from key 8: spans pages 0..4 (keys 8..71).
  bool done = false;
  Operation op;
  op.type = OpType::kScan;
  op.key = 8;
  op.scan_length = 64;
  db.ExecuteOp(op, [&](Status s, const WrittenRow&) {
    EXPECT_TRUE(s.ok());
    done = true;
  });
  rig.sim.RunUntil(5.0);
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.disk.total_requests(), 5u);  // Cold: 5 page reads.
  EXPECT_EQ(db.buffer_pool()->misses(), 5u);
}

TEST(ScanTest, HitsSkipDisk) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  Operation op;
  op.type = OpType::kScan;
  op.key = 0;
  op.scan_length = 32;  // Pages 0-1.
  db.ExecuteOp(op, nullptr);
  rig.sim.RunUntil(5.0);
  const uint64_t cold_requests = rig.disk.total_requests();
  db.ExecuteOp(op, nullptr);  // Same range again: cached.
  rig.sim.RunUntil(10.0);
  EXPECT_EQ(rig.disk.total_requests(), cold_requests);
}

TEST(ScanTest, ScanAtTailClampsToTable) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  bool done = false;
  Operation op;
  op.type = OpType::kScan;
  op.key = 1020;          // 4 rows from the end...
  op.scan_length = 1000;  // ...but asks for far more.
  db.ExecuteOp(op, [&](Status s, const WrittenRow&) { done = s.ok(); });
  rig.sim.RunUntil(5.0);
  EXPECT_TRUE(done);
  // Only the final page gets read (clamped), not 60+.
  EXPECT_LE(rig.disk.total_requests(), 2u);
}

TEST(ScanTest, ZeroLengthTreatedAsOne) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  bool done = false;
  Operation op;
  op.type = OpType::kScan;
  op.key = 100;
  op.scan_length = 0;
  db.ExecuteOp(op, [&](Status s, const WrittenRow&) { done = s.ok(); });
  rig.sim.RunUntil(5.0);
  EXPECT_TRUE(done);
}

TEST(ScanTest, FreezeBlocksScansToo) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  db.Freeze(nullptr);
  bool done = false;
  Operation op;
  op.type = OpType::kScan;
  op.key = 0;
  op.scan_length = 16;
  db.ExecuteOp(op, [&](Status s, const WrittenRow&) { done = s.ok(); });
  rig.sim.RunUntil(5.0);
  EXPECT_FALSE(done);
  db.Unfreeze();
  rig.sim.RunUntil(10.0);
  EXPECT_TRUE(done);
}

TEST(ScanTest, TransactionMixesScansAndPointOps) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  TxnSpec spec;
  spec.txn_id = 1;
  spec.ops.push_back(Operation{OpType::kRead, 5, 0});
  spec.ops.push_back(Operation{OpType::kScan, 100, 40});
  spec.ops.push_back(Operation{OpType::kUpdate, 7, 0});
  TxnResult result;
  TxnFrames frames;
  ExecuteTransaction(&rig.sim, &db, spec, rig.sim.Now(), &frames,
                     [&](const TxnResult& r) { result = r; });
  rig.sim.RunUntil(10.0);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.writes.size(), 1u);
  EXPECT_EQ(db.ops_executed(), 3u);
}

TEST(ScanWorkloadTest, MixGeneratesScansWithBoundedLength) {
  workload::YcsbConfig config;
  config.record_count = 1024;
  config.mix = workload::OperationMix{0.5, 0.1, 0.4};
  ASSERT_TRUE(config.Validate().ok());
  workload::YcsbWorkload workload(config, 1, 9);
  int scans = 0, total = 0;
  TxnSpec spec;
  for (int t = 0; t < 500; ++t) {
    workload.NextTxn(&spec);
    for (const auto& op : spec.ops) {
      ++total;
      if (op.type == OpType::kScan) {
        ++scans;
        EXPECT_GE(op.scan_length, 1u);
        EXPECT_LE(op.scan_length, workload::kMaxScanLength);
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(scans) / total, 0.4, 0.03);
}

TEST(ScanWorkloadTest, MigrationUnderScanHeavyWorkload) {
  // Workload E + live migration: still converges, nothing lost.
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);
  engine::TenantConfig tenant = SmallConfig();
  tenant.layout.record_count = 32 * 1024;
  tenant.buffer_pool_bytes = 4 * kMiB;
  ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mix = workload::OperationMix{0.45, 0.1, 0.45};
  ycsb.mean_interarrival = 0.5;
  workload::YcsbWorkload workload(ycsb, 1, 41);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  pool.Start();
  sim.RunUntil(5.0);

  MigrationOptions migration;
  migration.pid.setpoint = 1000.0;
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
  sim.RunUntil(500.0);
  pool.Stop();
  sim.RunUntil(520.0);
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.status.ok());
  EXPECT_TRUE(report.digest_match);
  EXPECT_EQ(pool.stats().failed, 0u);
}

}  // namespace
}  // namespace slacker::engine
