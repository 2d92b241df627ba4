// MigrationSupervisor: retries across crashes with exponential backoff,
// resumes snapshot transfer from durably staged chunks, classifies
// failures transient vs permanent, and folds every attempt into one
// enriched report. Also: a retry that streams afresh replaces the rows
// an earlier attempt staged.

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

// Runs the job for tenant 1 to server 1 until it has sent at least
// `snapshot_bytes` of snapshot, then crashes server 1 and brings it
// back 2 s later; returns once the job has failed.
void CrashTargetAfterSnapshotBytes(sim::Simulator* sim, Cluster* cluster,
                                   const MigrationOptions& options,
                                   uint64_t snapshot_bytes) {
  bool done = false;
  MigrationReport report;
  ASSERT_TRUE(cluster
                  ->StartMigration(1, 1, options,
                                   [&](const MigrationReport& r) {
                                     report = r;
                                     done = true;
                                   })
                  .ok());
  const SimTime deadline = sim->Now() + 60.0;
  while (!done && sim->Now() < deadline) {
    const MigrationJob* job = cluster->ActiveJob(1);
    if (job != nullptr && job->report().snapshot_bytes >= snapshot_bytes) {
      break;
    }
    sim->RunUntil(sim->Now() + 0.005);
  }
  ASSERT_FALSE(done) << "the snapshot ended before the crash";
  cluster->CrashServer(1);
  cluster->RestartServer(1, 2.0);
  while (!done && sim->Now() < deadline) sim->RunUntil(sim->Now() + 0.5);
  ASSERT_TRUE(done);
  EXPECT_FALSE(report.status.ok());
  sim->RunUntil(sim->Now() + 5.0);  // The restart completes.
}

// A fresh stream (the source does not resume) on an idle tenant starts
// at the same LSN as the rows an earlier attempt staged. It must replace
// that staged record, not append below its last key: first after a
// stop-and-copy retry, whose source declines the target's resume offer,
// then after a retry with resume disabled.
TEST(StagedSnapshotTest, FreshStreamOnIdleTenantSupersedesStagedRows) {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);
  const engine::TenantConfig tenant = Tenant64MiB();
  ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());
  DurableStore* store = cluster.server(1)->durable();
  const uint64_t record_bytes = tenant.layout.record_bytes;

  CrashTargetAfterSnapshotBytes(&sim, &cluster, SlowSnapshot(), 32 * kMiB);
  const StagedSnapshot* first = store->Staged(1);
  ASSERT_NE(first, nullptr);
  const size_t first_rows = first->rows.size();
  const storage::Lsn staged_lsn = first->start_lsn;
  ASSERT_GT(first_rows, 0u);

  MigrationOptions stop_and_copy = SlowSnapshot();
  stop_and_copy.mode = MigrationMode::kStopAndCopy;
  CrashTargetAfterSnapshotBytes(&sim, &cluster, stop_and_copy, 8 * kMiB);
  const StagedSnapshot* second = store->Staged(1);
  ASSERT_NE(second, nullptr);
  // Same LSN, but only the second stream's rows: fewer than the first
  // attempt staged, from the range's first key, one chunk payload each.
  EXPECT_EQ(second->start_lsn, staged_lsn);
  ASSERT_GT(second->rows.size(), 0u);
  EXPECT_LT(second->rows.size(), first_rows);
  EXPECT_EQ(second->rows.front_key(), 0u);
  EXPECT_EQ(second->resume_key, second->rows.back_key() + 1);
  EXPECT_EQ(second->bytes_staged, second->rows.size() * record_bytes);

  MigrationOptions no_resume = SlowSnapshot();
  no_resume.allow_resume = false;
  bool done = false;
  MigrationReport report;
  ASSERT_TRUE(cluster
                  .StartMigration(1, 1, no_resume,
                                  [&](const MigrationReport& r) {
                                    report = r;
                                    done = true;
                                  })
                  .ok());
  sim.RunUntil(sim.Now() + 60.0);
  ASSERT_TRUE(done);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_TRUE(report.digest_match);
  EXPECT_EQ(report.resumed_bytes, 0u);
  EXPECT_EQ(*cluster.directory()->Lookup(1), 1u);
  EXPECT_EQ(store->Staged(1), nullptr);
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
