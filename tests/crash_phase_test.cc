// Crash-at-every-phase sweep: for each migration phase, crash either
// the source or the target mid-phase (restarting a few seconds later)
// while a MigrationSupervisor drives the migration. The safety property
// for EVERY cell of the grid: once the dust settles there is exactly
// one authoritative, intact, unfrozen replica of the tenant — never
// zero, never a divergent pair.

#include <gtest/gtest.h>

#include <string>

#include "src/common/units.h"
#include "src/slacker/cluster.h"
#include "src/slacker/fault_injector.h"
#include "src/slacker/migration_supervisor.h"

namespace slacker {
namespace {

struct CrashPhaseParams {
  MigrationPhase phase;
  bool crash_target;  // false = crash the source.
};

std::string PhaseName(MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::kNegotiate: return "Negotiate";
    case MigrationPhase::kSnapshot: return "Snapshot";
    case MigrationPhase::kPrepare: return "Prepare";
    case MigrationPhase::kDelta: return "Delta";
    case MigrationPhase::kHandover: return "Handover";
    case MigrationPhase::kDone:
    case MigrationPhase::kFailed: return "Terminal";
  }
  return "Terminal";
}

class CrashPhaseSweep : public ::testing::TestWithParam<CrashPhaseParams> {};

TEST_P(CrashPhaseSweep, ExactlyOneAuthoritativeReplica) {
  const CrashPhaseParams params = GetParam();
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);

  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 32 * 1024;
  tenant.buffer_pool_bytes = 4 * kMiB;
  ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());
  const uint64_t original_digest = cluster.TenantOn(0, 1)->StateDigest();

  const uint64_t victim = params.crash_target ? 1u : 0u;
  FaultPlan plan;
  plan.CrashAtPhase(victim, /*watch_tenant=*/1, params.phase,
                    /*restart_after=*/3.0, /*phase_delay=*/0.2);
  FaultInjector injector(&cluster, plan);
  injector.Arm();

  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 16.0;
  options.prepare.base_seconds = 0.5;
  options.timeout_seconds = 8.0;

  SupervisorOptions sup;
  sup.max_attempts = 6;
  sup.initial_backoff = 1.0;
  sup.attempt_timeout = 15.0;  // A source crash eats the job silently.

  MigrationReport report;
  bool done = false;
  MigrationSupervisor supervisor(&cluster, 1, 1, options, sup,
                                 [&](const MigrationReport& r) {
                                   report = r;
                                   done = true;
                                 });
  ASSERT_TRUE(supervisor.Start().ok());
  sim.RunUntil(300.0);
  ASSERT_TRUE(done) << "supervisor never resolved";
  EXPECT_EQ(injector.faults_fired(), 1);

  // Drive session reaps and any trailing recovery to completion.
  sim.RunUntil(sim.Now() + 60.0);

  // Exactly one authoritative replica, and it is intact.
  const auto authority = cluster.directory()->Lookup(1);
  ASSERT_TRUE(authority.ok()) << "tenant lost from the directory";
  const uint64_t owner = *authority;
  engine::TenantDb* serving = cluster.Resolve(1);
  ASSERT_NE(serving, nullptr)
      << "authoritative server " << owner << " has no instance";
  EXPECT_FALSE(serving->frozen());
  EXPECT_EQ(serving->StateDigest(), original_digest);

  // The OTHER server holds no stray replica that could ever serve.
  const uint64_t other = owner == 0 ? 1u : 0u;
  EXPECT_EQ(cluster.TenantOn(other, 1), nullptr)
      << "divergent replica on server " << other;

  // With a supervisor retrying across a crash that heals, the common
  // outcome is full convergence onto the target.
  if (report.status.ok()) {
    EXPECT_EQ(owner, 1u);
    EXPECT_TRUE(report.digest_match);
  }
}

std::vector<CrashPhaseParams> Grid() {
  std::vector<CrashPhaseParams> grid;
  for (MigrationPhase phase :
       {MigrationPhase::kNegotiate, MigrationPhase::kSnapshot,
        MigrationPhase::kPrepare, MigrationPhase::kDelta,
        MigrationPhase::kHandover}) {
    grid.push_back({phase, false});
    grid.push_back({phase, true});
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, CrashPhaseSweep, ::testing::ValuesIn(Grid()),
    [](const ::testing::TestParamInfo<CrashPhaseParams>& info) {
      return PhaseName(info.param.phase) +
             (info.param.crash_target ? "_target" : "_source");
    });

}  // namespace
}  // namespace slacker
