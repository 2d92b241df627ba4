// MigrationSupervisor: retries across crashes with exponential backoff,
// resumes snapshot transfer from durably staged chunks, classifies
// failures transient vs permanent, and folds every attempt into one
// enriched report.

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/slacker/cluster.h"
#include "src/slacker/fault_injector.h"
#include "src/slacker/migration_supervisor.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

engine::TenantConfig Tenant64MiB(uint64_t id = 1) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 64 * 1024;  // 64 MiB at 1 KiB rows.
  config.buffer_pool_bytes = 8 * kMiB;
  return config;
}

MigrationOptions SlowSnapshot() {
  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 16.0;  // ~4 s of snapshot streaming.
  options.prepare.base_seconds = 0.5;
  options.timeout_seconds = 10.0;  // Job watchdog rescues a dead target.
  return options;
}

struct SupervisedRun {
  MigrationReport report;
  bool done = false;

  MigrationSupervisor::DoneCallback Done() {
    return [this](const MigrationReport& r) {
      report = r;
      done = true;
    };
  }
};

// THE acceptance scenario: the target crashes mid-snapshot and restarts
// 5 s later. The supervisor retries; the retry's resume negotiation
// skips the chunks the first attempt already staged durably.
TEST(MigrationSupervisorTest, TargetCrashMidSnapshotResumesAndCompletes) {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);
  ASSERT_TRUE(cluster.AddTenant(0, Tenant64MiB()).ok());

  workload::YcsbConfig ycsb;
  ycsb.record_count = 64 * 1024;
  ycsb.mean_interarrival = 0.05;
  workload::YcsbWorkload workload(ycsb, 1, 21);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  pool.Start();
  sim.RunUntil(1.0);

  // Crash the TARGET 2 s into the snapshot; bring it back 5 s later.
  FaultPlan plan;
  plan.CrashAtPhase(/*server_id=*/1, /*watch_tenant=*/1,
                    MigrationPhase::kSnapshot, /*restart_after=*/5.0,
                    /*phase_delay=*/2.0);
  FaultInjector injector(&cluster, plan);
  injector.Arm();

  SupervisorOptions sup;
  sup.initial_backoff = 1.0;
  sup.max_attempts = 5;
  SupervisedRun run;
  MigrationSupervisor supervisor(&cluster, 1, 1, SlowSnapshot(), sup,
                                 run.Done());
  ASSERT_TRUE(supervisor.Start().ok());
  sim.RunUntil(120.0);
  pool.Stop();
  sim.RunUntil(140.0);

  ASSERT_TRUE(run.done);
  EXPECT_EQ(injector.faults_fired(), 1);
  EXPECT_TRUE(run.report.status.ok()) << run.report.status.ToString();
  EXPECT_TRUE(run.report.digest_match);
  EXPECT_GE(run.report.attempt_count, 2);
  EXPECT_GT(run.report.resumed_bytes, 0u);
  EXPECT_EQ(run.report.attempts.size(),
            static_cast<size_t>(run.report.attempt_count));
  EXPECT_FALSE(run.report.attempts.front().status.ok());
  EXPECT_TRUE(run.report.attempts.back().status.ok());

  // The tenant landed on the target, intact, serving.
  EXPECT_EQ(*cluster.directory()->Lookup(1), 1u);
  engine::TenantDb* serving = cluster.Resolve(1);
  ASSERT_NE(serving, nullptr);
  EXPECT_FALSE(serving->frozen());
  for (const auto& [key, acked] : pool.acked_writes()) {
    if (acked.deleted) continue;
    const storage::Record* row = serving->table().Get(key);
    ASSERT_NE(row, nullptr) << "lost acked key " << key;
    EXPECT_GE(row->lsn, acked.lsn);
  }
  EXPECT_EQ(pool.stats().failed, 0u);
}

TEST(MigrationSupervisorTest, SourceCrashSynthesizedByAttemptTimeout) {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);
  ASSERT_TRUE(cluster.AddTenant(0, Tenant64MiB()).ok());

  // Crash the SOURCE mid-snapshot: the job object dies with it, so its
  // done callback never fires — only the supervisor's attempt timeout
  // can resolve the attempt.
  FaultPlan plan;
  plan.CrashAtPhase(/*server_id=*/0, /*watch_tenant=*/1,
                    MigrationPhase::kSnapshot, /*restart_after=*/4.0,
                    /*phase_delay=*/1.0);
  FaultInjector injector(&cluster, plan);
  injector.Arm();

  SupervisorOptions sup;
  sup.initial_backoff = 1.0;
  sup.attempt_timeout = 15.0;
  SupervisedRun run;
  MigrationSupervisor supervisor(&cluster, 1, 1, SlowSnapshot(), sup,
                                 run.Done());
  ASSERT_TRUE(supervisor.Start().ok());
  sim.RunUntil(180.0);

  ASSERT_TRUE(run.done);
  EXPECT_TRUE(run.report.status.ok()) << run.report.status.ToString();
  EXPECT_GE(run.report.attempt_count, 2);
  EXPECT_EQ(*cluster.directory()->Lookup(1), 1u);
  engine::TenantDb* serving = cluster.Resolve(1);
  ASSERT_NE(serving, nullptr);
  EXPECT_FALSE(serving->frozen());
}

TEST(MigrationSupervisorTest, PermanentFailureIsNotRetried) {
  sim::Simulator sim;
  Cluster cluster(&sim, ClusterOptions{});
  // Tenant 9 does not exist: kNotFound, permanent.
  SupervisorOptions sup;
  SupervisedRun run;
  MigrationSupervisor supervisor(&cluster, 9, 1, SlowSnapshot(), sup,
                                 run.Done());
  ASSERT_TRUE(supervisor.Start().ok());
  sim.RunUntil(30.0);
  ASSERT_TRUE(run.done);
  EXPECT_EQ(run.report.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(run.report.attempt_count, 1);
}

TEST(MigrationSupervisorTest, AlreadyOnTargetConvergesWithoutMigrating) {
  sim::Simulator sim;
  Cluster cluster(&sim, ClusterOptions{});
  ASSERT_TRUE(cluster.AddTenant(1, Tenant64MiB()).ok());
  SupervisedRun run;
  MigrationSupervisor supervisor(&cluster, 1, 1, SlowSnapshot(),
                                 SupervisorOptions{}, run.Done());
  ASSERT_TRUE(supervisor.Start().ok());
  sim.RunUntil(5.0);
  ASSERT_TRUE(run.done);
  EXPECT_TRUE(run.report.status.ok());
  EXPECT_EQ(run.report.snapshot_bytes, 0u);
}

TEST(MigrationSupervisorTest, BudgetExhaustionReportsLastFailure) {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);
  ASSERT_TRUE(cluster.AddTenant(0, Tenant64MiB()).ok());
  cluster.SetPartitioned(0, 1, true);  // Never heals.

  MigrationOptions options = SlowSnapshot();
  options.timeout_seconds = 3.0;
  SupervisorOptions sup;
  sup.max_attempts = 3;
  sup.initial_backoff = 0.5;
  SupervisedRun run;
  MigrationSupervisor supervisor(&cluster, 1, 1, options, sup, run.Done());
  ASSERT_TRUE(supervisor.Start().ok());
  sim.RunUntil(120.0);
  ASSERT_TRUE(run.done);
  EXPECT_FALSE(run.report.status.ok());
  EXPECT_EQ(run.report.attempt_count, 3);
  EXPECT_EQ(run.report.attempts.size(), 3u);
  EXPECT_EQ(*cluster.directory()->Lookup(1), 0u);
  EXPECT_FALSE(cluster.TenantOn(0, 1)->frozen());
}

TEST(MigrationSupervisorTest, TransientClassification) {
  EXPECT_TRUE(MigrationSupervisor::IsTransient(Status::Aborted("watchdog")));
  EXPECT_TRUE(MigrationSupervisor::IsTransient(Status::Unavailable("down")));
  EXPECT_TRUE(MigrationSupervisor::IsTransient(Status::Corruption("crc")));
  EXPECT_FALSE(MigrationSupervisor::IsTransient(Status::NotFound("tenant")));
  EXPECT_FALSE(
      MigrationSupervisor::IsTransient(Status::InvalidArgument("options")));
  EXPECT_FALSE(MigrationSupervisor::IsTransient(Status::Internal("bug")));
}

TEST(MigrationSupervisorTest, SupervisorOptionsValidate) {
  SupervisorOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  SupervisorOptions bad = ok;
  bad.max_attempts = 0;
  EXPECT_FALSE(bad.Validate().ok());
}

}  // namespace
}  // namespace slacker
