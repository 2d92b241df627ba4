// Integration tests for live migration on a simulated cluster: the
// full snapshot → prepare → delta → handover protocol, stop-and-copy,
// error paths, and the throttle policies driving real migrations.

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/slacker/cluster.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

// A 64 MiB tenant so migrations finish in seconds of simulated time.
engine::TenantConfig SmallTenant(uint64_t id = 1) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 64 * 1024;  // 64 MiB of 1 KiB rows.
  config.buffer_pool_bytes = 8 * kMiB;
  return config;
}

ClusterOptions TestCluster() {
  ClusterOptions options;
  options.num_servers = 3;
  return options;
}

MigrationOptions FixedLive(double mbps) {
  MigrationOptions options;
  options.mode = MigrationMode::kLive;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = mbps;
  options.prepare.base_seconds = 0.5;
  return options;
}

MigrationOptions StopAndCopyOptions(double fixed_rate_mbps,
                                    bool file_level_copy = true) {
  MigrationOptions options;
  options.mode = MigrationMode::kStopAndCopy;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = fixed_rate_mbps;
  options.file_level_copy = file_level_copy;
  return options;
}

struct MigrationRig {
  sim::Simulator sim;
  Cluster cluster;
  MigrationReport report;
  bool done = false;

  explicit MigrationRig(ClusterOptions options = TestCluster())
      : cluster(&sim, options) {}

  MigrationJob::DoneCallback Done() {
    return [this](const MigrationReport& r) {
      report = r;
      done = true;
    };
  }
};

TEST(MigrationTest, IdleTenantLiveMigrationCompletes) {
  MigrationRig rig;
  auto db = rig.cluster.AddTenant(0, SmallTenant());
  ASSERT_TRUE(db.ok());
  const uint64_t source_digest = (*db)->StateDigest();

  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FixedLive(16.0), rig.Done()).ok());
  rig.sim.RunUntil(120.0);

  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  EXPECT_TRUE(rig.report.digest_match);
  EXPECT_EQ(rig.report.snapshot_bytes, 64 * kMiB);
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
  // The tenant now lives (only) on server 1, with identical state.
  EXPECT_EQ(rig.cluster.TenantOn(0, 1), nullptr);
  engine::TenantDb* moved = rig.cluster.TenantOn(1, 1);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->StateDigest(), source_digest);
  EXPECT_FALSE(moved->frozen());
  // 64 MiB at 16 MB/s ≈ 4 s of snapshot.
  EXPECT_NEAR(rig.report.snapshot_seconds, 4.0, 1.5);
  EXPECT_LT(rig.report.downtime_ms, 1000.0);
}

TEST(MigrationTest, FixedRateControlsDuration) {
  // Half the throttle → roughly double the snapshot time.
  double durations[2];
  int i = 0;
  for (double mbps : {16.0, 8.0}) {
    MigrationRig rig;
    ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
    ASSERT_TRUE(
        rig.cluster.StartMigration(1, 1, FixedLive(mbps), rig.Done()).ok());
    rig.sim.RunUntil(200.0);
    ASSERT_TRUE(rig.done);
    durations[i++] = rig.report.snapshot_seconds;
  }
  EXPECT_NEAR(durations[1] / durations[0], 2.0, 0.4);
}

TEST(MigrationTest, MigrationUnderLoadConvergesAndLosesNoAck) {
  MigrationRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());

  workload::YcsbConfig ycsb;
  ycsb.record_count = 64 * 1024;
  ycsb.mean_interarrival = 0.2;
  workload::YcsbWorkload workload(ycsb, 1, 99);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();
  rig.sim.RunUntil(5.0);

  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FixedLive(16.0), rig.Done()).ok());
  rig.sim.RunUntil(150.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok());
  EXPECT_TRUE(rig.report.digest_match);
  EXPECT_GT(rig.report.delta_bytes, 0u);

  pool.Stop();
  rig.sim.RunUntil(200.0);
  EXPECT_EQ(pool.stats().failed, 0u);

  // Durability across the handover: every acknowledged write is
  // present (or superseded) at the target.
  engine::TenantDb* moved = rig.cluster.TenantOn(1, 1);
  ASSERT_NE(moved, nullptr);
  ASSERT_FALSE(pool.acked_writes().empty());
  for (const auto& [key, acked] : pool.acked_writes()) {
    if (acked.deleted) continue;
    const storage::Record* row = moved->table().Get(key);
    ASSERT_NE(row, nullptr) << "lost acked write to key " << key;
    EXPECT_GE(row->lsn, acked.lsn);
    if (row->lsn == acked.lsn) {
      EXPECT_EQ(row->digest, acked.digest);
    }
  }
}

TEST(MigrationTest, HandoverDowntimeSubSecondUnderLoad) {
  MigrationRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  workload::YcsbConfig ycsb;
  ycsb.record_count = 64 * 1024;
  ycsb.mean_interarrival = 0.25;
  workload::YcsbWorkload workload(ycsb, 1, 7);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();

  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FixedLive(16.0), rig.Done()).ok());
  rig.sim.RunUntil(150.0);
  pool.Stop();
  rig.sim.RunUntil(160.0);
  ASSERT_TRUE(rig.done);
  // The paper's headline: freeze-and-handover "well under 1 second".
  EXPECT_LT(rig.report.downtime_ms, 1000.0);
  EXPECT_GT(rig.report.downtime_ms, 0.0);
}

TEST(MigrationTest, DeltaRoundsShrinkToHandover) {
  MigrationRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  workload::YcsbConfig ycsb;
  ycsb.record_count = 64 * 1024;
  ycsb.mix.read = 0.5;
  ycsb.mix.update = 0.5;  // Write-heavy: real delta volume.
  ycsb.mean_interarrival = 0.2;
  workload::YcsbWorkload workload(ycsb, 1, 55);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();

  MigrationOptions options = FixedLive(16.0);
  // Tighten the handover threshold so the write stream's backlog forces
  // at least one full delta round before the freeze.
  options.delta_handover_bytes = 16 * kKiB;
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, options, rig.Done()).ok());
  rig.sim.RunUntil(200.0);
  pool.Stop();
  rig.sim.RunUntil(210.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok());
  EXPECT_GE(rig.report.delta_rounds, 1);
  EXPECT_LE(rig.report.delta_rounds, 50);
  EXPECT_TRUE(rig.report.digest_match);
}

TEST(MigrationTest, StopAndCopyDowntimeIsWholeCopy) {
  MigrationRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  ASSERT_TRUE(rig.cluster
                  .StartMigration(1, 1, StopAndCopyOptions(16.0), rig.Done())
                  .ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok());
  EXPECT_TRUE(rig.report.digest_match);
  // Downtime ≈ full duration, i.e., seconds (not sub-second).
  EXPECT_GT(rig.report.downtime_ms, 3000.0);
  EXPECT_NEAR(rig.report.downtime_ms,
              MsFromSeconds(rig.report.DurationSeconds()), 500.0);
}

TEST(MigrationTest, StopAndCopyBlocksClientsDuringCopy) {
  MigrationRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  workload::YcsbConfig ycsb;
  ycsb.record_count = 64 * 1024;
  ycsb.mean_interarrival = 0.25;
  workload::YcsbWorkload workload(ycsb, 1, 3);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();
  rig.sim.RunUntil(5.0);
  ASSERT_TRUE(rig.cluster
                  .StartMigration(1, 1, StopAndCopyOptions(16.0), rig.Done())
                  .ok());
  rig.sim.RunUntil(120.0);
  pool.Stop();
  rig.sim.RunUntil(140.0);
  ASSERT_TRUE(rig.done);
  // Transactions arriving during the freeze waited it out (or bounced
  // and retried): worst-case latency reflects the downtime.
  EXPECT_GT(pool.latencies().Percentile(100), 1000.0);
  EXPECT_EQ(pool.stats().failed, 0u);
}

TEST(MigrationTest, MysqldumpModeSlowerThanFileLevel) {
  double durations[2];
  int i = 0;
  for (bool file_level : {true, false}) {
    MigrationRig rig;
    ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
    ASSERT_TRUE(rig.cluster
                    .StartMigration(1, 1,
                                    StopAndCopyOptions(16.0, file_level),
                                    rig.Done())
                    .ok());
    rig.sim.RunUntil(300.0);
    ASSERT_TRUE(rig.done);
    durations[i++] = rig.report.DurationSeconds();
  }
  EXPECT_GT(durations[1], durations[0] + 3.0);
}

TEST(MigrationTest, PidThrottledMigrationTracksSetpoint) {
  MigrationRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  workload::YcsbConfig ycsb;
  ycsb.record_count = 64 * 1024;
  ycsb.mean_interarrival = 0.15;
  workload::YcsbWorkload workload(ycsb, 1, 21);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();
  rig.sim.RunUntil(5.0);

  MigrationOptions options;
  options.throttle = ThrottleKind::kPid;
  options.pid.setpoint = 500.0;
  options.pid.output_max = 50.0;
  options.prepare.base_seconds = 0.5;
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, options, rig.Done()).ok());
  rig.sim.RunUntil(400.0);
  pool.Stop();
  rig.sim.RunUntil(420.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok());
  EXPECT_TRUE(rig.report.digest_match);
  EXPECT_EQ(rig.report.throttle_name, "slacker-pid");
  // The controller produced a rate series and it actually varied.
  ASSERT_GT(rig.report.throttle_series.size(), 10u);
  EXPECT_GT(rig.report.throttle_series.StatsAll().max(), 1.0);
  EXPECT_EQ(pool.stats().failed, 0u);
}

TEST(MigrationTest, AbortsWhenTargetAlreadyHasTenant) {
  MigrationRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  // Same tenant id already occupies the target server.
  ASSERT_TRUE(rig.cluster.server(1)
                  ->tenants()
                  ->CreateTenant(SmallTenant(), false, false)
                  .ok());
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FixedLive(16.0), rig.Done()).ok());
  rig.sim.RunUntil(30.0);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.report.status.code(), StatusCode::kAborted);
  // Source still authoritative and intact.
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 0u);
  EXPECT_NE(rig.cluster.TenantOn(0, 1), nullptr);
}

TEST(MigrationTest, StartRejectsBadRequests) {
  MigrationRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  // Unknown tenant.
  EXPECT_FALSE(rig.cluster.StartMigration(99, 1, FixedLive(8), nullptr).ok());
  // Unknown target server.
  EXPECT_FALSE(rig.cluster.StartMigration(1, 9, FixedLive(8), nullptr).ok());
  // Same server.
  EXPECT_FALSE(rig.cluster.StartMigration(1, 0, FixedLive(8), nullptr).ok());
  // Duplicate migration of the same tenant.
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, FixedLive(8), rig.Done()).ok());
  EXPECT_EQ(
      rig.cluster.StartMigration(1, 2, FixedLive(8), nullptr).code(),
      StatusCode::kFailedPrecondition);
}

TEST(MigrationTest, StopAndCopyRejectsSourceFrozenForRecovery) {
  MigrationRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  rig.cluster.CrashServer(0);
  rig.cluster.RestartServer(0, 1.0);
  // The recovered instance stays frozen until its recovery read lands.
  engine::TenantDb* db = nullptr;
  while (db == nullptr && rig.sim.Now() < 10.0) {
    rig.sim.RunUntil(rig.sim.Now() + 0.01);
    db = rig.cluster.TenantOn(0, 1);
  }
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->frozen());
  EXPECT_EQ(rig.cluster
                .StartMigration(1, 1, StopAndCopyOptions(16.0), rig.Done())
                .code(),
            StatusCode::kFailedPrecondition);
  rig.sim.RunUntil(rig.sim.Now() + 30.0);
  EXPECT_FALSE(db->frozen());
  EXPECT_FALSE(rig.done);
}

TEST(MigrationTest, SecondMigrationAfterFirstWorks) {
  // Migrate 0 → 1, write some more, then 1 → 2: LSN and insert cursors
  // must survive the first handover for the second to converge.
  MigrationRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  workload::YcsbConfig ycsb;
  ycsb.record_count = 64 * 1024;
  ycsb.mean_interarrival = 0.3;
  ycsb.mix = workload::OperationMix{0.6, 0.3, 0.1, 0.0};  // With inserts.
  workload::YcsbWorkload workload(ycsb, 1, 31);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();

  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FixedLive(32.0), rig.Done()).ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok());
  ASSERT_TRUE(rig.report.digest_match);

  rig.done = false;
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 2, FixedLive(32.0), rig.Done()).ok());
  rig.sim.RunUntil(300.0);
  pool.Stop();
  rig.sim.RunUntil(320.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  EXPECT_TRUE(rig.report.digest_match);
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 2u);
  EXPECT_EQ(pool.stats().failed, 0u);
}

TEST(MigrationTest, ReportPhaseTimesSumToDuration) {
  MigrationRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FixedLive(16.0), rig.Done()).ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(rig.done);
  const MigrationReport& r = rig.report;
  const double sum = r.negotiate_seconds + r.snapshot_seconds +
                     r.prepare_seconds + r.delta_seconds +
                     r.handover_seconds;
  EXPECT_NEAR(sum, r.DurationSeconds(), 0.1);
  EXPECT_GT(r.AverageRateMbps(), 0.0);
}

}  // namespace
}  // namespace slacker
