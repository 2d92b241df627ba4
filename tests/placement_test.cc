// Tests for the placement advisor (when / which / where) and the live
// stats collector.

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/slacker/cluster.h"
#include "src/slacker/placement.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

TenantLoadStat T(uint64_t id, double demand, uint64_t mib) {
  return TenantLoadStat{id, demand, mib * kMiB};
}

ServerLoadStat S(uint64_t id, double util, std::vector<TenantLoadStat> ts) {
  ServerLoadStat s;
  s.server_id = id;
  s.utilization = util;
  s.tenants = std::move(ts);
  return s;
}

TEST(PlacementOptionsTest, Validation) {
  EXPECT_TRUE(PlacementOptions().Validate().ok());
  PlacementOptions bad;
  bad.overload_threshold = 0;
  EXPECT_FALSE(bad.Validate().ok());
  // No room left under the threshold for the target headroom.
  bad.overload_threshold = 0.10;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(PlanReliefTest, NoHotspotNoPlans) {
  PlacementAdvisor advisor;
  const auto plans = advisor.PlanRelief({
      S(0, 0.5, {T(1, 0.3, 1024), T(2, 0.2, 512)}),
      S(1, 0.2, {T(3, 0.2, 512)}),
  });
  EXPECT_TRUE(plans.empty());
}

TEST(PlanReliefTest, PicksSmallestSufficientTenant) {
  PlacementAdvisor advisor;  // Threshold 0.70.
  // Server 0 at 0.9: excess 0.2. Tenant 1 (0.5 demand, 2 GiB) and
  // tenant 2 (0.25 demand, 512 MiB) both clear it; tenant 2 moves less
  // data.
  const auto plans = advisor.PlanRelief({
      S(0, 0.9, {T(1, 0.5, 2048), T(2, 0.25, 512), T(3, 0.15, 256)}),
      S(1, 0.1, {}),
  });
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].tenant_id, 2u);
  EXPECT_EQ(plans[0].source_server, 0u);
  EXPECT_EQ(plans[0].target_server, 1u);
  EXPECT_FALSE(plans[0].rationale.empty());
}

TEST(PlanReliefTest, FallsBackToBiggestWhenNoneSuffices) {
  PlacementAdvisor advisor;
  // Excess 0.25 but each tenant only contributes 0.15 max: take the
  // biggest to make the most progress.
  const auto plans = advisor.PlanRelief({
      S(0, 0.95, {T(1, 0.15, 512), T(2, 0.10, 256)}),
      S(1, 0.1, {}),
  });
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].tenant_id, 1u);
}

TEST(PlanReliefTest, TargetNeedsHeadroom) {
  PlacementAdvisor advisor;  // Threshold 0.7, headroom 0.1 -> cap 0.6.
  // Only candidate target would land at 0.55 + 0.2 = 0.75 > 0.6: no plan.
  const auto plans = advisor.PlanRelief({
      S(0, 0.9, {T(1, 0.2, 512)}),
      S(1, 0.55, {T(9, 0.55, 512)}),
  });
  EXPECT_TRUE(plans.empty());
}

TEST(PlanReliefTest, PicksLeastLoadedTarget) {
  PlacementAdvisor advisor;
  const auto plans = advisor.PlanRelief({
      S(0, 0.85, {T(1, 0.3, 512)}),
      S(1, 0.4, {}),
      S(2, 0.1, {}),
  });
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].target_server, 2u);
}

TEST(PlanReliefTest, MultipleHotspotsAccountForProjectedLoad) {
  PlacementAdvisor advisor;
  // Two hotspots must not both dump onto the same small target if that
  // would overload it.
  const auto plans = advisor.PlanRelief({
      S(0, 0.9, {T(1, 0.35, 512)}),
      S(1, 0.9, {T(2, 0.35, 512)}),
      S(2, 0.1, {}),
      S(3, 0.2, {}),
  });
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_NE(plans[0].target_server, plans[1].target_server);
}

TEST(PlanConsolidationTest, EmptiesIdleServerAllOrNothing) {
  PlacementAdvisor advisor;  // Consolidation threshold 0.15.
  const auto plans = advisor.PlanConsolidation({
      S(0, 0.4, {T(1, 0.4, 1024)}),
      S(1, 0.08, {T(2, 0.05, 256), T(3, 0.03, 128)}),
  });
  ASSERT_EQ(plans.size(), 2u);
  for (const auto& plan : plans) {
    EXPECT_EQ(plan.source_server, 1u);
    EXPECT_EQ(plan.target_server, 0u);
  }
}

TEST(PlanConsolidationTest, SkipsWhenTenantsCannotAllFit) {
  PlacementOptions options;
  options.consolidation_threshold = 0.3;
  PlacementAdvisor advisor(options);
  const auto plans = advisor.PlanConsolidation({
      S(0, 0.55, {T(1, 0.55, 1024)}),
      // 0.25 total, but moving both would push server 0 past 0.6 cap.
      S(1, 0.25, {T(2, 0.15, 256), T(3, 0.10, 128)}),
  });
  EXPECT_TRUE(plans.empty());
}

TEST(PlanReliefTest, AllServersOverloadedYieldsNoPlans) {
  PlacementAdvisor advisor;
  // Fleet-wide saturation: nowhere has headroom, so the advisor must
  // return nothing (adding migration I/O anywhere only makes it worse)
  // rather than shuffling load between hotspots.
  const auto plans = advisor.PlanRelief({
      S(0, 0.90, {T(1, 0.4, 512)}),
      S(1, 0.85, {T(2, 0.4, 512)}),
      S(2, 0.80, {T(3, 0.3, 256)}),
  });
  EXPECT_TRUE(plans.empty());
}

TEST(PlanReliefTest, DemandExactlyEqualToExcessClearsHotspot) {
  PlacementAdvisor advisor;  // Threshold 0.70.
  // Server 0 at 0.9: excess is exactly 0.2. Tenant 1's demand is
  // exactly 0.2 — it must count as clearing the hotspot (boundary is
  // inclusive), so the small exact-match tenant wins over the
  // bigger-demand tenant 2 on the least-data-to-copy rule.
  const auto plans = advisor.PlanRelief({
      S(0, 0.9, {T(1, 0.2, 512), T(2, 0.5, 2048)}),
      S(1, 0.1, {}),
  });
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].tenant_id, 1u);
}

TEST(PlanConsolidationTest, NeverRefillsAFellowCandidate) {
  PlacementAdvisor advisor;  // Consolidation threshold 0.15, cap 0.6.
  // Regression: the consolidation path used to reuse the relief
  // worst-fit picker, which chose the *least*-loaded viable target —
  // here server 1, itself a below-threshold candidate. The batch then
  // refilled a server scheduled for shutdown and the next pass drained
  // it again (churn). Best-fit with candidate exclusion packs both
  // candidates' tenants into the busy half of the fleet instead.
  const auto plans = advisor.PlanConsolidation({
      S(0, 0.08, {T(1, 0.05, 256)}),
      S(1, 0.10, {T(2, 0.06, 256)}),
      S(2, 0.40, {T(8, 0.40, 1024)}),
      S(3, 0.50, {T(9, 0.50, 1024)}),
  });
  ASSERT_EQ(plans.size(), 2u);
  for (const auto& plan : plans) {
    EXPECT_NE(plan.target_server, 0u) << "refilled a candidate";
    EXPECT_NE(plan.target_server, 1u) << "refilled a candidate";
  }
  // Best-fit: tenant 1 (0.05) goes to the *fullest* server with room —
  // server 3 (0.50 + 0.05 = 0.55, under the 0.60 cap). Worst-fit would
  // have spread it to server 2.
  EXPECT_EQ(plans[0].tenant_id, 1u);
  EXPECT_EQ(plans[0].target_server, 3u);
  // Server 3 is now full, so tenant 2 packs into server 2.
  EXPECT_EQ(plans[1].tenant_id, 2u);
  EXPECT_EQ(plans[1].target_server, 2u);
}

TEST(PlanConsolidationTest, AbortedBatchReleasesItsReservations) {
  PlacementAdvisor advisor;  // Threshold 0.15, cap 0.6.
  // Server 0 is tried first (least loaded): tenant 1 fits on server 2
  // (0.52 + 0.06 = 0.58) but tenant 2 fits nowhere, so the whole batch
  // must roll back — including tenant 1's trial reservation. Server 1's
  // tenant 3 then still fits (0.52 + 0.07 = 0.59 <= 0.6); if the
  // aborted batch leaked its reservation the fleet would look full and
  // no plan at all would come out.
  const auto plans = advisor.PlanConsolidation({
      S(0, 0.05, {T(1, 0.06, 256), T(2, 0.10, 256)}),
      S(1, 0.10, {T(3, 0.07, 256)}),
      S(2, 0.52, {T(9, 0.52, 1024)}),
  });
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].tenant_id, 3u);
  EXPECT_EQ(plans[0].source_server, 1u);
  EXPECT_EQ(plans[0].target_server, 2u);
}

TEST(CollectClusterStatsTest, ApportionsUtilizationByOps) {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);
  std::vector<std::unique_ptr<workload::YcsbWorkload>> workloads;
  std::vector<std::unique_ptr<workload::ClientPool>> pools;
  // Tenant 1 gets ~4x the traffic of tenant 2, both on server 0.
  for (uint64_t id : {1, 2}) {
    engine::TenantConfig tenant;
    tenant.tenant_id = id;
    tenant.layout.record_count = 8 * 1024;
    tenant.buffer_pool_bytes = kMiB;
    ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());
    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = id == 1 ? 0.1 : 0.4;
    workloads.push_back(
        std::make_unique<workload::YcsbWorkload>(ycsb, id, id * 5));
    pools.push_back(std::make_unique<workload::ClientPool>(
        &sim, workloads.back().get(), &cluster,
        cluster.MakeLatencyObserver()));
    pools.back()->Start();
  }
  std::vector<std::pair<uint64_t, uint64_t>> baseline;
  CollectClusterStats(&cluster, &baseline);  // Establish the baseline.
  sim.RunUntil(60.0);
  const auto stats = CollectClusterStats(&cluster, &baseline);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].utilization, 0.0);
  ASSERT_EQ(stats[0].tenants.size(), 2u);
  double demand1 = 0, demand2 = 0;
  for (const auto& t : stats[0].tenants) {
    if (t.tenant_id == 1) demand1 = t.demand;
    if (t.tenant_id == 2) demand2 = t.demand;
    EXPECT_GT(t.data_bytes, 0u);
  }
  EXPECT_GT(demand1, demand2 * 2.0);
  EXPECT_NEAR(demand1 + demand2, stats[0].utilization, 1e-9);
  // Server 1 hosts nothing.
  EXPECT_TRUE(stats[1].tenants.empty());
  for (auto& pool : pools) pool->Stop();
}

TEST(PlacementIntegrationTest, ReliefPlanActuallyRelieves) {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);
  std::vector<std::unique_ptr<workload::YcsbWorkload>> workloads;
  std::vector<std::unique_ptr<workload::ClientPool>> pools;
  for (uint64_t id : {1, 2}) {
    engine::TenantConfig tenant;
    tenant.tenant_id = id;
    tenant.layout.record_count = 16 * 1024;
    tenant.buffer_pool_bytes = 2 * kMiB;
    ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());
    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    // ~0.45 disk demand each: together they overload one server, apart
    // each server sits comfortably below the threshold.
    ycsb.mean_interarrival = 0.15;
    workloads.push_back(
        std::make_unique<workload::YcsbWorkload>(ycsb, id, id * 13));
    pools.push_back(std::make_unique<workload::ClientPool>(
        &sim, workloads.back().get(), &cluster,
        cluster.MakeLatencyObserver()));
    cluster.AttachClientPool(id, pools.back().get());
    pools.back()->Start();
  }
  std::vector<std::pair<uint64_t, uint64_t>> baseline;
  CollectClusterStats(&cluster, &baseline);
  sim.RunUntil(40.0);
  const auto stats = CollectClusterStats(&cluster, &baseline);
  PlacementAdvisor advisor;
  const auto plans = advisor.PlanRelief(stats);
  ASSERT_FALSE(plans.empty()) << "overload not detected; util="
                              << stats[0].utilization;
  // Execute the plan with a fast fixed throttle.
  MigrationOptions migration;
  migration.throttle = ThrottleKind::kFixed;
  migration.fixed_rate_mbps = 30.0;
  migration.prepare.base_seconds = 0.2;
  bool done = false;
  ASSERT_TRUE(cluster
                  .StartMigration(plans[0].tenant_id, plans[0].target_server,
                                  migration,
                                  [&](const MigrationReport&) { done = true; })
                  .ok());
  sim.RunUntil(sim.Now() + 120.0);
  ASSERT_TRUE(done);
  // Let the overload backlog drain, then measure a clean window: both
  // servers below the hotspot threshold.
  sim.RunUntil(sim.Now() + 30.0);
  cluster.server(0)->disk()->ResetStats();
  cluster.server(1)->disk()->ResetStats();
  sim.RunUntil(sim.Now() + 40.0);
  EXPECT_LT(cluster.server(0)->disk()->Utilization(), 0.7);
  EXPECT_LT(cluster.server(1)->disk()->Utilization(), 0.7);
  for (auto& pool : pools) pool->Stop();
}

}  // namespace
}  // namespace slacker
