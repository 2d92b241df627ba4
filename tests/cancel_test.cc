// Tests for migration cancellation: the source must stay authoritative
// and serviceable, the target's staging instance must be discarded, and
// a later retry must succeed.

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/slacker/cluster.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

engine::TenantConfig SmallTenant(uint64_t id = 1) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 64 * 1024;
  config.buffer_pool_bytes = 8 * kMiB;
  return config;
}

MigrationOptions SlowFixed() {
  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 4.0;  // 64 MiB -> 16 s: plenty of time.
  options.prepare.base_seconds = 0.5;
  return options;
}

MigrationOptions StopAndCopyOptions(double fixed_rate_mbps) {
  MigrationOptions options;
  options.mode = MigrationMode::kStopAndCopy;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = fixed_rate_mbps;
  return options;
}

struct Rig {
  sim::Simulator sim;
  Cluster cluster;
  MigrationReport report;
  bool done = false;

  Rig() : cluster(&sim, ClusterOptions{}) {}

  MigrationJob::DoneCallback Done() {
    return [this](const MigrationReport& r) {
      report = r;
      done = true;
    };
  }
};

TEST(CancelTest, CancelDuringSnapshotRestoresEverything) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, SlowFixed(), rig.Done()).ok());
  rig.sim.RunUntil(5.0);  // Mid-snapshot.
  ASSERT_NE(rig.cluster.ActiveJob(1), nullptr);
  ASSERT_TRUE(rig.cluster.CancelMigration(1, "test").ok());
  rig.sim.RunUntil(10.0);

  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.report.status.code(), StatusCode::kAborted);
  // Source authoritative and intact; staging gone.
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 0u);
  EXPECT_NE(rig.cluster.TenantOn(0, 1), nullptr);
  EXPECT_EQ(rig.cluster.TenantOn(1, 1), nullptr);
  EXPECT_FALSE(rig.cluster.TenantOn(0, 1)->frozen());
  EXPECT_EQ(rig.cluster.ActiveJob(1), nullptr);
}

TEST(CancelTest, RetryAfterCancelSucceeds) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, SlowFixed(), rig.Done()).ok());
  rig.sim.RunUntil(3.0);
  ASSERT_TRUE(rig.cluster.CancelMigration(1).ok());
  rig.sim.RunUntil(6.0);
  ASSERT_TRUE(rig.done);

  rig.done = false;
  MigrationOptions fast = SlowFixed();
  fast.fixed_rate_mbps = 32.0;
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, fast, rig.Done()).ok());
  rig.sim.RunUntil(60.0);
  ASSERT_TRUE(rig.done);
  EXPECT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  EXPECT_TRUE(rig.report.digest_match);
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
}

TEST(CancelTest, CancelStopAndCopyUnfreezesSource) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  ASSERT_TRUE(rig.cluster
                  .StartMigration(1, 1, StopAndCopyOptions(4.0), rig.Done())
                  .ok());
  rig.sim.RunUntil(5.0);
  ASSERT_TRUE(rig.cluster.TenantOn(0, 1)->frozen());
  ASSERT_TRUE(rig.cluster.CancelMigration(1).ok());
  rig.sim.RunUntil(8.0);
  ASSERT_TRUE(rig.done);
  // The freeze is released: queries flow again.
  EXPECT_FALSE(rig.cluster.TenantOn(0, 1)->frozen());
}

TEST(CancelTest, WorkloadSurvivesCancel) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  workload::YcsbConfig ycsb;
  ycsb.record_count = 64 * 1024;
  ycsb.mean_interarrival = 0.3;
  workload::YcsbWorkload workload(ycsb, 1, 9);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();
  rig.sim.RunUntil(5.0);
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, SlowFixed(), rig.Done()).ok());
  rig.sim.RunUntil(10.0);
  ASSERT_TRUE(rig.cluster.CancelMigration(1).ok());
  rig.sim.RunUntil(40.0);
  pool.Stop();
  rig.sim.RunUntil(50.0);
  EXPECT_EQ(pool.stats().failed, 0u);
  EXPECT_GT(pool.stats().completed, 50u);
}

TEST(CancelTest, TooLateDuringHandover) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  MigrationOptions fast = SlowFixed();
  fast.fixed_rate_mbps = 64.0;
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, fast, rig.Done()).ok());
  // Drive until the job reaches handover, then try to cancel. The
  // handover window is a few milliseconds, so step finely.
  bool saw_handover = false;
  while (!rig.done && rig.sim.Now() < 120.0) {
    rig.sim.RunUntil(rig.sim.Now() + 0.001);
    MigrationJob* job = rig.cluster.ActiveJob(1);
    if (job != nullptr && job->phase() == MigrationPhase::kHandover) {
      saw_handover = true;
      // The cancel lost the race to handover: a distinct status, not a
      // generic failure, and the migration still lands.
      EXPECT_EQ(rig.cluster.CancelMigration(1).code(),
                StatusCode::kTooLateToCancel);
      break;
    }
  }
  EXPECT_TRUE(saw_handover);
  rig.sim.RunUntil(rig.sim.Now() + 60.0);
  ASSERT_TRUE(rig.done);
  EXPECT_TRUE(rig.report.status.ok());
  // Target authoritative — the late cancel must not roll it back.
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
}

// Cancels at every phase of a live migration. Before handover the
// cancel succeeds (kAborted report, source authoritative); at handover
// it returns kTooLateToCancel and the target ends up authoritative.
TEST(CancelTest, CancelAtEveryPhase) {
  const MigrationPhase kPhases[] = {
      MigrationPhase::kNegotiate, MigrationPhase::kSnapshot,
      MigrationPhase::kPrepare, MigrationPhase::kDelta,
      MigrationPhase::kHandover};
  for (const MigrationPhase phase : kPhases) {
    SCOPED_TRACE(MigrationPhaseName(phase));
    Rig rig;
    ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
    // Live writes keep the dirty set non-empty so the delta phase has
    // real duration (an idle tenant's delta round is sub-millisecond).
    workload::YcsbConfig ycsb;
    ycsb.record_count = 64 * 1024;
    ycsb.mean_interarrival = 0.005;
    workload::YcsbWorkload workload(ycsb, 1, 9);
    workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                              rig.cluster.MakeLatencyObserver());
    rig.cluster.AttachClientPool(1, &pool);
    pool.Start();
    MigrationOptions options = SlowFixed();
    options.fixed_rate_mbps = 16.0;  // ~4 s copy: every phase is visible.
    options.prepare.base_seconds = 0.5;
    // Ship every pending byte as a delta round instead of folding a
    // small dirty set into the handover, so kDelta is observable.
    options.delta_handover_bytes = 0;
    ASSERT_TRUE(rig.cluster.StartMigration(1, 1, options, rig.Done()).ok());
    bool cancelled = false;
    bool too_late = false;
    while (!rig.done && rig.sim.Now() < 120.0) {
      MigrationJob* job = rig.cluster.ActiveJob(1);
      if (job != nullptr && job->phase() == phase) {
        const Status status = rig.cluster.CancelMigration(1, "phase sweep");
        if (phase == MigrationPhase::kHandover) {
          EXPECT_EQ(status.code(), StatusCode::kTooLateToCancel);
          too_late = true;
        } else {
          EXPECT_TRUE(status.ok()) << status.ToString();
          cancelled = true;
        }
        break;
      }
      // Step finely: the handover window is a few milliseconds.
      rig.sim.RunUntil(rig.sim.Now() + 0.001);
    }
    rig.sim.RunUntil(rig.sim.Now() + 60.0);
    pool.Stop();
    ASSERT_TRUE(rig.done);
    if (phase == MigrationPhase::kHandover) {
      ASSERT_TRUE(too_late);
      // The migration completed; the target is authoritative.
      EXPECT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
      EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
      EXPECT_NE(rig.cluster.TenantOn(1, 1), nullptr);
    } else {
      ASSERT_TRUE(cancelled);
      EXPECT_EQ(rig.report.status.code(), StatusCode::kAborted);
      // Source authoritative, serviceable, staging discarded.
      EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 0u);
      ASSERT_NE(rig.cluster.TenantOn(0, 1), nullptr);
      EXPECT_FALSE(rig.cluster.TenantOn(0, 1)->frozen());
      EXPECT_EQ(rig.cluster.TenantOn(1, 1), nullptr);
    }
  }
}

TEST(CancelTest, WatchdogAbortsSlowMigration) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  MigrationOptions options = SlowFixed();  // 64 MiB at 4 MB/s: ~16 s.
  options.timeout_seconds = 5.0;           // Will not make it.
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, options, rig.Done()).ok());
  rig.sim.RunUntil(30.0);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.report.status.code(), StatusCode::kAborted);
  EXPECT_LT(rig.report.DurationSeconds(), 7.0);
  // Rolled back cleanly.
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 0u);
  EXPECT_EQ(rig.cluster.TenantOn(1, 1), nullptr);
  EXPECT_FALSE(rig.cluster.TenantOn(0, 1)->frozen());
}

TEST(CancelTest, WatchdogHarmlessWhenMigrationIsFastEnough) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  MigrationOptions options = SlowFixed();
  options.fixed_rate_mbps = 32.0;  // ~2 s copy.
  options.timeout_seconds = 60.0;
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, options, rig.Done()).ok());
  rig.sim.RunUntil(120.0);  // Run well past the watchdog firing time.
  ASSERT_TRUE(rig.done);
  EXPECT_TRUE(rig.report.status.ok());
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
}

TEST(CancelTest, UnknownTenantOrIdleTenant) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  EXPECT_EQ(rig.cluster.CancelMigration(99).code(), StatusCode::kNotFound);
  EXPECT_EQ(rig.cluster.CancelMigration(1).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace slacker
