// Tests for maintenance drain mode and the rolling-upgrade
// orchestrator (DESIGN.md §12): drain rejects placements while the
// rebalancer evacuates, waves patch the fleet under the latency guard,
// the health gate aborts into rollback, and chaos (canary crash,
// partition mid-evacuation) is survived via supervisor retries.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/slacker/cluster.h"
#include "src/slacker/fault_injector.h"
#include "src/slacker/rebalancer.h"
#include "src/slacker/upgrade.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

struct TenantSpec {
  uint64_t server;
  double interarrival;
};

// Same live-fleet fixture as rebalancer_test, plus a software version
// for every server (v1 unless overridden) so upgrades have somewhere
// to go.
class FleetFixture {
 public:
  FleetFixture(int servers, const std::vector<TenantSpec>& specs,
               uint32_t software_version = 1) {
    ClusterOptions options;
    options.num_servers = servers;
    options.software_version = software_version;
    cluster_ = std::make_unique<Cluster>(&sim_, options);
    for (size_t i = 0; i < specs.size(); ++i) {
      const uint64_t id = i + 1;
      engine::TenantConfig tenant;
      tenant.tenant_id = id;
      tenant.layout.record_count = 8 * 1024;
      tenant.buffer_pool_bytes = kMiB;
      EXPECT_TRUE(cluster_->AddTenant(specs[i].server, tenant).ok());
      workload::YcsbConfig ycsb;
      ycsb.record_count = tenant.layout.record_count;
      ycsb.mean_interarrival = specs[i].interarrival;
      workloads_.push_back(
          std::make_unique<workload::YcsbWorkload>(ycsb, id, id * 17));
      pools_.push_back(std::make_unique<workload::ClientPool>(
          &sim_, workloads_.back().get(), cluster_.get(),
          cluster_->MakeLatencyObserver()));
      cluster_->AttachClientPool(id, pools_.back().get());
      pools_.back()->Start();
    }
  }

  ~FleetFixture() {
    for (auto& pool : pools_) pool->Stop();
  }

  static RebalancerOptions FastOptions() {
    RebalancerOptions options;
    options.period = 5.0;
    options.migration.throttle = ThrottleKind::kFixed;
    options.migration.fixed_rate_mbps = 30.0;
    options.migration.prepare.base_seconds = 0.2;
    options.migration.pid.setpoint = 1000.0;
    // Chaos resilience: a stalled attempt (partitioned pair, crashed
    // peer) aborts and the supervisor retries.
    options.migration.timeout_seconds = 20.0;
    options.supervisor.attempt_timeout = 30.0;
    options.supervisor.max_attempts = 8;
    return options;
  }

  static UpgradeOptions FastUpgrade(uint32_t target = 2) {
    UpgradeOptions options;
    options.target_version = target;
    options.wave_size = 2;
    options.patch_seconds = 2.0;
    options.poll_period = 0.5;
    options.observe_seconds = 2.0;
    options.drain_timeout = 300.0;
    options.sla_ms = 0.0;  // Latency term off unless the test wants it.
    options.max_violation_seconds = 1e9;
    options.max_failed_migrations = 1000;
    return options;
  }

  template <typename Pred>
  SimTime RunUntilHolds(SimTime deadline, Pred pred) {
    while (sim_.Now() < deadline) {
      sim_.RunUntil(sim_.Now() + 1.0);
      if (pred()) return sim_.Now();
    }
    return -1.0;
  }

  /// Every tenant resolves to a live instance.
  bool AllTenantsReachable() {
    for (size_t i = 0; i < pools_.size(); ++i) {
      if (cluster_->Resolve(i + 1) == nullptr) return false;
    }
    return true;
  }

  sim::Simulator* sim() { return &sim_; }
  Cluster* cluster() { return cluster_.get(); }

 private:
  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<workload::YcsbWorkload>> workloads_;
  std::vector<std::unique_ptr<workload::ClientPool>> pools_;
};

TEST(UpgradeOptionsTest, Validation) {
  EXPECT_FALSE(UpgradeOptions().Validate().ok()) << "target_version unset";
  UpgradeOptions ok = FleetFixture::FastUpgrade();
  EXPECT_TRUE(ok.Validate().ok());
  UpgradeOptions bad = ok;
  bad.wave_size = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.poll_period = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.patch_seconds = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
}

// A draining server rejects new placements — direct AddTenant and
// incoming migration staging alike — and accepts them again once
// undrained.
TEST(DrainTest, DrainingServerRejectsPlacements) {
  sim::Simulator sim;
  ClusterOptions options;
  options.num_servers = 3;
  Cluster cluster(&sim, options);

  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 8 * 1024;
  tenant.buffer_pool_bytes = kMiB;
  ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());

  ASSERT_TRUE(cluster.SetDraining(2, true).ok());
  EXPECT_FALSE(cluster.server(0)->draining());
  EXPECT_FALSE(cluster.server(1)->draining());
  EXPECT_TRUE(cluster.server(2)->draining());

  // Direct placement refused.
  engine::TenantConfig second = tenant;
  second.tenant_id = 2;
  const auto added = cluster.AddTenant(2, second);
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kFailedPrecondition);

  // Migration staging refused up front.
  MigrationOptions migration;
  migration.throttle = ThrottleKind::kFixed;
  migration.fixed_rate_mbps = 30.0;
  EXPECT_EQ(cluster.StartMigration(1, 2, migration, nullptr).code(),
            StatusCode::kFailedPrecondition);

  // Undrained: both paths work again.
  ASSERT_TRUE(cluster.SetDraining(2, false).ok());
  EXPECT_TRUE(cluster.AddTenant(2, second).ok());
}

// The rebalancer evacuates a draining server through guard-band
// admission and never refills it, while the tenants stay reachable.
TEST(DrainTest, RebalancerEvacuatesDrainingServer) {
  FleetFixture fleet(3, {{2, 1.0}, {2, 1.0}, {0, 1.0}});
  fleet.sim()->RunUntil(10.0);

  Rebalancer rebalancer(fleet.cluster(), FleetFixture::FastOptions());
  ASSERT_TRUE(rebalancer.Start().ok());
  ASSERT_TRUE(fleet.cluster()->SetDraining(2, true).ok());

  const SimTime drained = fleet.RunUntilHolds(180.0, [&] {
    return fleet.cluster()->server(2)->tenants()->TenantIds().empty() &&
           rebalancer.inflight() == 0;
  });
  ASSERT_GT(drained, 0.0) << "draining server was never evacuated";
  EXPECT_GE(rebalancer.stats().drain_admitted, 2u);
  EXPECT_TRUE(fleet.AllTenantsReachable());

  // Still draining: consolidation/relief must not repopulate it.
  fleet.sim()->RunUntil(drained + 30.0);
  EXPECT_TRUE(fleet.cluster()->server(2)->tenants()->TenantIds().empty());
  rebalancer.Stop();
}

// Happy path: a loaded 4-server fleet fully upgrades, canary first,
// with every tenant reachable at the end and versions monotone.
TEST(UpgradeTest, RollingUpgradeCompletes) {
  FleetFixture fleet(4, {{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}});
  fleet.sim()->RunUntil(10.0);

  Rebalancer rebalancer(fleet.cluster(), FleetFixture::FastOptions());
  ASSERT_TRUE(rebalancer.Start().ok());

  RollingUpgradeOrchestrator upgrade(fleet.cluster(), &rebalancer,
                                     FleetFixture::FastUpgrade(2));
  UpgradeReport report;
  bool done = false;
  ASSERT_TRUE(upgrade
                  .Start([&](const UpgradeReport& r) {
                    report = r;
                    done = true;
                  })
                  .ok());
  EXPECT_TRUE(upgrade.running());
  EXPECT_FALSE(upgrade.Start(nullptr).ok()) << "double start rejected";

  const SimTime finished = fleet.RunUntilHolds(600.0, [&] { return done; });
  ASSERT_GT(finished, 0.0) << "upgrade never finished";
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_FALSE(report.rolled_back);
  // Canary wave (1 server) + ceil(3 / wave_size=2) = 3 waves.
  EXPECT_EQ(report.waves_completed, 3);
  for (uint64_t id = 0; id < 4; ++id) {
    EXPECT_EQ(fleet.cluster()->ServerVersion(id), 2u) << "server " << id;
    EXPECT_FALSE(fleet.cluster()->server(id)->draining());
  }
  EXPECT_TRUE(fleet.AllTenantsReachable());
  EXPECT_EQ(rebalancer.inflight(), 0u);
  rebalancer.Stop();
}

// A tripped health gate aborts the run: evacuations are called off,
// drain flags cleared, and the report says why.
TEST(UpgradeTest, HealthGateTripsOnViolationBudget) {
  FleetFixture fleet(3, {{0, 0.3}, {1, 0.3}, {2, 0.3}});
  fleet.sim()->RunUntil(10.0);

  Rebalancer rebalancer(fleet.cluster(), FleetFixture::FastOptions());
  ASSERT_TRUE(rebalancer.Start().ok());

  UpgradeOptions options = FleetFixture::FastUpgrade(2);
  // Impossible SLA: every loaded server violates every poll, so the
  // budget burns out within a few polls of wave 0.
  options.sla_ms = 0.001;
  options.max_violation_seconds = 2.0;
  RollingUpgradeOrchestrator upgrade(fleet.cluster(), &rebalancer, options);
  UpgradeReport report;
  bool done = false;
  ASSERT_TRUE(upgrade
                  .Start([&](const UpgradeReport& r) {
                    report = r;
                    done = true;
                  })
                  .ok());
  const SimTime finished = fleet.RunUntilHolds(300.0, [&] { return done; });
  ASSERT_GT(finished, 0.0);
  EXPECT_EQ(report.status.code(), StatusCode::kAborted);
  EXPECT_TRUE(report.rolled_back);
  ASSERT_FALSE(report.waves.empty());
  EXPECT_TRUE(report.waves.front().gate_tripped);
  // Nothing was patched before the trip, so versions are untouched.
  for (uint64_t id = 0; id < 3; ++id) {
    EXPECT_EQ(fleet.cluster()->ServerVersion(id), 1u);
    EXPECT_FALSE(fleet.cluster()->server(id)->draining());
  }
  EXPECT_TRUE(fleet.AllTenantsReachable());
  rebalancer.Stop();
}

// Forced abort after the canary has been patched: the rollback path
// must restore the original version map, leave zero migrations in
// flight, and keep every tenant reachable.
TEST(UpgradeTest, AbortAfterCanaryRollsBackVersions) {
  FleetFixture fleet(4, {{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}});
  fleet.sim()->RunUntil(10.0);

  Rebalancer rebalancer(fleet.cluster(), FleetFixture::FastOptions());
  ASSERT_TRUE(rebalancer.Start().ok());

  RollingUpgradeOrchestrator upgrade(fleet.cluster(), &rebalancer,
                                     FleetFixture::FastUpgrade(2));
  UpgradeReport report;
  bool done = false;
  ASSERT_TRUE(upgrade
                  .Start([&](const UpgradeReport& r) {
                    report = r;
                    done = true;
                  })
                  .ok());

  // Wait for the canary (server 0) to run the new version, then pull
  // the plug mid-run.
  const SimTime canary_patched = fleet.RunUntilHolds(300.0, [&] {
    return fleet.cluster()->ServerVersion(0) == 2u && !done;
  });
  ASSERT_GT(canary_patched, 0.0) << "canary never patched";
  upgrade.Abort("pulled by test");

  const SimTime finished = fleet.RunUntilHolds(600.0, [&] { return done; });
  ASSERT_GT(finished, 0.0) << "abort never resolved";
  EXPECT_EQ(report.status.code(), StatusCode::kAborted);
  EXPECT_TRUE(report.rolled_back);
  for (uint64_t id = 0; id < 4; ++id) {
    EXPECT_EQ(fleet.cluster()->ServerVersion(id), 1u)
        << "server " << id << " not rolled back";
    EXPECT_FALSE(fleet.cluster()->server(id)->draining());
  }
  EXPECT_EQ(rebalancer.inflight(), 0u);
  EXPECT_TRUE(fleet.AllTenantsReachable());
  rebalancer.Stop();
}

// Chaos: the canary crashes mid-evacuation. Recovery restores its
// tenants (still draining), the supervisors retry, and the upgrade
// completes anyway.
TEST(UpgradeChaosTest, CanaryCrashMidEvacuationRecovers) {
  FleetFixture fleet(4, {{0, 1.0}, {0, 1.0}, {1, 1.0}, {2, 1.0}});
  fleet.sim()->RunUntil(10.0);

  Rebalancer rebalancer(fleet.cluster(), FleetFixture::FastOptions());
  ASSERT_TRUE(rebalancer.Start().ok());

  FaultPlan plan;
  plan.CrashOnDrainEvacuation(/*server_id=*/0, /*restart_after=*/3.0,
                              /*delay=*/0.5);
  FaultInjector injector(fleet.cluster(), std::move(plan));
  injector.Arm();

  RollingUpgradeOrchestrator upgrade(fleet.cluster(), &rebalancer,
                                     FleetFixture::FastUpgrade(2));
  UpgradeReport report;
  bool done = false;
  ASSERT_TRUE(upgrade
                  .Start([&](const UpgradeReport& r) {
                    report = r;
                    done = true;
                  })
                  .ok());
  const SimTime finished = fleet.RunUntilHolds(900.0, [&] { return done; });
  ASSERT_GT(finished, 0.0) << "upgrade never finished";
  EXPECT_EQ(injector.faults_fired(), 1);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  for (uint64_t id = 0; id < 4; ++id) {
    EXPECT_EQ(fleet.cluster()->ServerVersion(id), 2u);
  }
  EXPECT_TRUE(fleet.AllTenantsReachable());
  rebalancer.Stop();
}

// Chaos: the canary is partitioned from the rest of the fleet while
// its evacuations stream. Attempts stall and abort via the watchdog;
// once the partition heals the retries land and the upgrade finishes.
TEST(UpgradeChaosTest, PartitionMidEvacuationRecovers) {
  FleetFixture fleet(4, {{0, 1.0}, {0, 1.0}, {1, 1.0}, {2, 1.0}});
  fleet.sim()->RunUntil(10.0);

  Rebalancer rebalancer(fleet.cluster(), FleetFixture::FastOptions());
  ASSERT_TRUE(rebalancer.Start().ok());

  // Cut the canary off from every possible evacuation target shortly
  // after wave 0's drain begins; heal 25 s later.
  FaultPlan plan;
  for (uint64_t peer = 1; peer < 4; ++peer) {
    plan.PartitionAt(0, peer, /*at_time=*/12.0, /*heal_after=*/25.0);
  }
  FaultInjector injector(fleet.cluster(), std::move(plan));
  injector.Arm();

  RollingUpgradeOrchestrator upgrade(fleet.cluster(), &rebalancer,
                                     FleetFixture::FastUpgrade(2));
  UpgradeReport report;
  bool done = false;
  ASSERT_TRUE(upgrade
                  .Start([&](const UpgradeReport& r) {
                    report = r;
                    done = true;
                  })
                  .ok());
  const SimTime finished = fleet.RunUntilHolds(900.0, [&] { return done; });
  ASSERT_GT(finished, 0.0) << "upgrade never finished";
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  for (uint64_t id = 0; id < 4; ++id) {
    EXPECT_EQ(fleet.cluster()->ServerVersion(id), 2u);
  }
  EXPECT_TRUE(fleet.AllTenantsReachable());
  rebalancer.Stop();
}

}  // namespace
}  // namespace slacker
