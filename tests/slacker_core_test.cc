// Tests for the Slacker middleware pieces below the migration job:
// tenant manager, throttle policies, options validation, and
// stop-and-copy estimates.

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/sim/simulator.h"
#include "src/slacker/options.h"
#include "src/slacker/tenant_manager.h"
#include "src/slacker/throttle_policy.h"

namespace slacker {
namespace {

// ---------------------------------------------------------------- Manager

engine::TenantConfig SmallConfig(uint64_t id) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 256;
  return config;
}

struct ManagerRig {
  sim::Simulator sim;
  resource::DiskModel disk{&sim, resource::DiskOptions{}};
  resource::CpuModel cpu{&sim, resource::CpuOptions{}};
  TenantManager manager{&sim, &disk, &cpu};
};

TEST(TenantManagerTest, CreateLoadsAndGets) {
  ManagerRig rig;
  auto db = rig.manager.CreateTenant(SmallConfig(1));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->table().size(), 256u);
  EXPECT_EQ(rig.manager.Get(1), *db);
  EXPECT_EQ(rig.manager.tenant_count(), 1u);
}

TEST(TenantManagerTest, CreateFrozenStagingInstance) {
  ManagerRig rig;
  auto db = rig.manager.CreateTenant(SmallConfig(2), /*load=*/false,
                                     /*frozen=*/true);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->table().empty());
  EXPECT_TRUE((*db)->frozen());
}

TEST(TenantManagerTest, DuplicateCreateRejected) {
  ManagerRig rig;
  ASSERT_TRUE(rig.manager.CreateTenant(SmallConfig(1)).ok());
  EXPECT_EQ(rig.manager.CreateTenant(SmallConfig(1)).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(TenantManagerTest, DeleteRemovesInstance) {
  ManagerRig rig;
  ASSERT_TRUE(rig.manager.CreateTenant(SmallConfig(1)).ok());
  ASSERT_TRUE(rig.manager.DeleteTenant(1).ok());
  EXPECT_EQ(rig.manager.Get(1), nullptr);
  EXPECT_EQ(rig.manager.DeleteTenant(1).code(), StatusCode::kNotFound);
}

TEST(TenantManagerTest, PortIsFunctionOfTenantId) {
  EXPECT_EQ(SmallConfig(5).Port(), SmallConfig(5).Port());
  EXPECT_NE(SmallConfig(5).Port(), SmallConfig(6).Port());
}

// ---------------------------------------------------------------- Options

TEST(MigrationOptionsTest, DefaultsValid) {
  EXPECT_TRUE(MigrationOptions().Validate().ok());
}

TEST(MigrationOptionsTest, RejectsBadValues) {
  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = MigrationOptions();
  options.pid.setpoint = -1;
  EXPECT_FALSE(options.Validate().ok());
  options = MigrationOptions();
  options.backup.chunk_bytes = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = MigrationOptions();
  options.max_delta_rounds = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(MigrationOptionsTest, PhaseNames) {
  EXPECT_STREQ(MigrationPhaseName(MigrationPhase::kSnapshot), "snapshot");
  EXPECT_STREQ(MigrationPhaseName(MigrationPhase::kHandover), "handover");
}

// ---------------------------------------------------------------- Policies

TEST(FixedThrottlePolicyTest, ConstantRate) {
  FixedThrottlePolicy policy(8.0);
  EXPECT_DOUBLE_EQ(policy.InitialRateMbps(), 8.0);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(policy.OnTick(i, 1.0), 8.0);
  EXPECT_EQ(policy.name(), "fixed");
}

TEST(PidThrottlePolicyTest, RampsUsingSourceMonitor) {
  control::LatencyMonitor monitor(3.0);
  control::PidConfig config;
  config.setpoint = 1000.0;
  config.output_max = 50.0;
  PidThrottlePolicy policy(config, &monitor);
  EXPECT_DOUBLE_EQ(policy.InitialRateMbps(), 0.0);
  monitor.Record(0.5, 100.0);
  const double r1 = policy.OnTick(1.0, 1.0);
  monitor.Record(1.5, 100.0);
  const double r2 = policy.OnTick(2.0, 1.0);
  EXPECT_GT(r1, 0.0);
  EXPECT_GT(r2, r1);
  EXPECT_DOUBLE_EQ(policy.last_terms().latency_ms, 100.0);
}

TEST(PidThrottlePolicyTest, MaxOfSourceAndTarget) {
  control::LatencyMonitor source(3.0), target(3.0);
  control::PidConfig config;
  config.setpoint = 1000.0;
  PidThrottlePolicy policy(config, &source, &target);
  source.Record(0.5, 100.0);
  target.Record(0.5, 4000.0);  // Target is the bottleneck.
  policy.OnTick(1.0, 1.0);
  EXPECT_DOUBLE_EQ(policy.last_terms().latency_ms, 4000.0);
}

TEST(MakeThrottlePolicyTest, BuildsRequestedKind) {
  control::LatencyMonitor source(3.0), target(3.0);
  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 4.0;
  auto fixed = MakeThrottlePolicy(options, &source, &target);
  EXPECT_EQ(fixed->name(), "fixed");
  options.throttle = ThrottleKind::kPid;
  auto pid = MakeThrottlePolicy(options, &source, &target);
  EXPECT_EQ(pid->name(), "slacker-pid");
}

}  // namespace
}  // namespace slacker
