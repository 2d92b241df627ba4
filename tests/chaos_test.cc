// Chaos property sweep: migrations under randomized message loss on
// every channel. The safety property that must hold for ALL schedules:
// a divergent replica never becomes authoritative. Every run ends in
// exactly one of two acceptable states:
//   (1) migration completed, digests matched, target is authoritative;
//   (2) migration failed/aborted, source is authoritative, intact, and
//       unfrozen, and the target holds no stray tenant.
// In both cases the client workload loses nothing it was acked.

#include <gtest/gtest.h>

#include <memory>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/slacker/cluster.h"
#include "src/slacker/fault_injector.h"
#include "src/slacker/migration_supervisor.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

struct ChaosParams {
  uint64_t seed;
  double drop_probability;
};

class ChaosSweep : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ChaosSweep, NeverADivergentAuthority) {
  const ChaosParams params = GetParam();
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);

  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 16 * 1024;
  tenant.buffer_pool_bytes = 2 * kMiB;
  ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());

  // Lossy network in both directions.
  auto drop_rng = std::make_shared<Rng>(params.seed * 31 + 7);
  const double p = params.drop_probability;
  auto filter = [drop_rng, p](net::Message*) {
    return drop_rng->NextDouble() >= p;
  };
  cluster.ChannelBetween(0, 1)->SetDeliveryFilter(filter);
  cluster.ChannelBetween(1, 0)->SetDeliveryFilter(filter);

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mean_interarrival = 0.4;
  workload::YcsbWorkload workload(ycsb, 1, params.seed);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  pool.Start();
  sim.RunUntil(3.0);

  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 16.0;
  options.prepare.base_seconds = 0.5;
  options.timeout_seconds = 20.0;  // The rescue under heavy loss.
  MigrationReport report;
  bool done = false;
  ASSERT_TRUE(cluster
                  .StartMigration(1, 1, options,
                                  [&](const MigrationReport& r) {
                                    report = r;
                                    done = true;
                                  })
                  .ok());
  sim.RunUntil(120.0);
  pool.Stop();
  sim.RunUntil(140.0);
  ASSERT_TRUE(done) << "neither completed nor aborted";

  const uint64_t authority = *cluster.directory()->Lookup(1);
  engine::TenantDb* serving = cluster.Resolve(1);
  ASSERT_NE(serving, nullptr);
  EXPECT_FALSE(serving->frozen());

  if (report.status.ok()) {
    // (1) Full success: digests matched, target took over.
    EXPECT_TRUE(report.digest_match);
    EXPECT_EQ(authority, 1u);
    EXPECT_EQ(cluster.TenantOn(0, 1), nullptr);
  } else {
    // (2) Clean failure: source still owns the tenant.
    EXPECT_EQ(authority, 0u);
    // The staging tenant may need the deferred reap to clear; drive it.
    sim.RunUntil(sim.Now() + 5.0);
  }

  // Acked durability at whichever replica is authoritative.
  for (const auto& [key, acked] : pool.acked_writes()) {
    const storage::Record* row = serving->table().Get(key);
    ASSERT_NE(row, nullptr) << "lost acked key " << key;
    EXPECT_GE(row->lsn, acked.lsn);
  }
  EXPECT_EQ(pool.stats().failed, 0u);
}

std::vector<ChaosParams> ChaosGrid() {
  std::vector<ChaosParams> grid;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (double p : {0.001, 0.01, 0.05}) {
      grid.push_back(ChaosParams{seed, p});
    }
  }
  // Brutal loss: nothing can complete; everything must abort cleanly.
  grid.push_back(ChaosParams{7, 0.5});
  grid.push_back(ChaosParams{8, 0.5});
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    LossGrid, ChaosSweep, ::testing::ValuesIn(ChaosGrid()),
    [](const ::testing::TestParamInfo<ChaosParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_drop" +
             std::to_string(static_cast<int>(info.param.drop_probability *
                                             1000));
    });

// Harsher chaos: message loss PLUS random server crash/restart cycles,
// with a MigrationSupervisor retrying the migration across them. The
// safety property is unchanged — exactly one authoritative, intact,
// unfrozen replica at the end, holding every acked write. Clients MAY
// see failures here (a server can stay down longer than their retry
// budget), so unlike the loss-only sweep we do not assert failed == 0.
class CrashChaosSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashChaosSweep, SupervisorConvergesAcrossCrashes) {
  const uint64_t seed = GetParam();
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);

  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 16 * 1024;
  tenant.buffer_pool_bytes = 2 * kMiB;
  ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());

  // Light message loss on top of the crashes.
  auto drop_rng = std::make_shared<Rng>(seed * 131 + 17);
  auto filter = [drop_rng](net::Message*) {
    return drop_rng->NextDouble() >= 0.01;
  };
  cluster.ChannelBetween(0, 1)->SetDeliveryFilter(filter);
  cluster.ChannelBetween(1, 0)->SetDeliveryFilter(filter);

  // Two crash/restart cycles at random times on random servers within
  // the first 40 s, each down 2-6 s.
  FaultInjector injector(
      &cluster, FaultPlan::RandomCrashes(/*count=*/2, /*num_servers=*/2,
                                         /*horizon=*/40.0, /*min_down=*/2.0,
                                         /*max_down=*/6.0, seed));
  injector.Arm();

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mean_interarrival = 0.4;
  workload::YcsbWorkload workload(ycsb, 1, seed);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  pool.Start();
  sim.RunUntil(2.0);

  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 16.0;
  options.prepare.base_seconds = 0.5;
  options.timeout_seconds = 10.0;
  SupervisorOptions sup;
  sup.max_attempts = 8;
  sup.initial_backoff = 1.0;
  sup.attempt_timeout = 20.0;
  sup.seed = seed;
  MigrationReport report;
  bool done = false;
  MigrationSupervisor supervisor(&cluster, 1, 1, options, sup,
                                 [&](const MigrationReport& r) {
                                   report = r;
                                   done = true;
                                 });
  ASSERT_TRUE(supervisor.Start().ok());
  sim.RunUntil(250.0);
  pool.Stop();
  sim.RunUntil(300.0);  // Drain clients, reaps, and trailing recovery.
  ASSERT_TRUE(done) << "supervisor never resolved";
  EXPECT_EQ(injector.faults_fired(), 2);

  const auto authority = cluster.directory()->Lookup(1);
  ASSERT_TRUE(authority.ok()) << "tenant lost from the directory";
  const uint64_t owner = *authority;
  ASSERT_TRUE(cluster.ServerUp(owner));
  engine::TenantDb* serving = cluster.Resolve(1);
  ASSERT_NE(serving, nullptr);
  EXPECT_FALSE(serving->frozen());
  const uint64_t other = owner == 0 ? 1u : 0u;
  EXPECT_EQ(cluster.TenantOn(other, 1), nullptr)
      << "divergent replica on server " << other;
  if (report.status.ok()) {
    EXPECT_TRUE(report.digest_match);
    EXPECT_EQ(owner, 1u);
  }

  // Acked durability survives every crash/restart/migration interleave.
  for (const auto& [key, acked] : pool.acked_writes()) {
    const storage::Record* row = serving->table().Get(key);
    ASSERT_NE(row, nullptr) << "lost acked key " << key;
    EXPECT_GE(row->lsn, acked.lsn);
  }
}

INSTANTIATE_TEST_SUITE_P(CrashGrid, CrashChaosSweep,
                         ::testing::Range<uint64_t>(1, 9),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace slacker
