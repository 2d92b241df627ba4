// Tests for the fleet bench harness: the JSON writer's exact bytes, the
// end-of-run audit (passing and catching a corrupted row), the testbed's
// teardown with a migration still in flight, and the rejection of
// malformed fleet flags.

#include "bench/fleet.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace slacker::bench {
namespace {

TEST(JsonWriterTest, NestedObjectMatchesLiteralBytes) {
  JsonWriter json;
  json.Field("figure", "figX")
      .Field("servers", 16)
      .Field("count", uint64_t{18446744073709551615u})
      .Field("delta", -3)
      .Field("ratio", 0.1)
      .BeginObject("arm")
      .Field("seconds", 2.5)
      .Field("done", true)
      .Field("cdf", std::vector<double>{1.0, 0.25, 1e-20})
      .Field("empty", std::vector<double>{})
      .EndObject()
      .Field("pass", false);
  EXPECT_EQ(json.str(),
            "{\n"
            "  \"figure\": \"figX\",\n"
            "  \"servers\": 16,\n"
            "  \"count\": 18446744073709551615,\n"
            "  \"delta\": -3,\n"
            "  \"ratio\": 0.10000000000000001,\n"
            "  \"arm\": {\n"
            "    \"seconds\": 2.5,\n"
            "    \"done\": true,\n"
            "    \"cdf\": [1, 0.25, 9.9999999999999995e-21],\n"
            "    \"empty\": []\n"
            "  },\n"
            "  \"pass\": false\n"
            "}\n");
}

/// Two servers, one tenant each, under a read/update mix; server 0's
/// tenant also gets hotspot pools, so its ledgers must merge by LSN.
class SmallFleet : public ::testing::Test {
 protected:
  SmallFleet() : fleet_(ExperimentOptions{}, Options(), /*metrics=*/true) {
    for (uint64_t tenant_id = 1; tenant_id <= 2; ++tenant_id) {
      engine::TenantConfig tenant;
      tenant.tenant_id = tenant_id;
      tenant.layout.record_count = 2048;
      tenant.buffer_pool_bytes = 2048 * kKiB;
      fleet_.AddTenant(tenant_id - 1, tenant);
      workload::YcsbConfig ycsb;
      ycsb.record_count = 2048;
      ycsb.mix.read = 0.5;
      ycsb.mix.update = 0.5;
      ycsb.mean_interarrival = 0.02;
      fleet_.AddPool(tenant_id, ycsb, tenant_id * 1000);
    }
    fleet_.InjectHotspot(0);
    fleet_.sim()->RunUntil(5.0);
  }

  static ClusterOptions Options() {
    ClusterOptions options = PaperClusterOptions();
    options.num_servers = 2;
    return options;
  }

  Fleet fleet_;
};

TEST_F(SmallFleet, AuditPassesThenCatchesOneCorruptedRow) {
  ASSERT_EQ(fleet_.pools().size(), 4u);
  ASSERT_TRUE(fleet_.Finish());
  const FleetAudit clean = fleet_.Audit();
  EXPECT_TRUE(clean.ok());
  EXPECT_EQ(clean.tenants, 2u);
  EXPECT_GT(clean.acked_keys, 100u);
  EXPECT_EQ(clean.mismatches, 0u);

  // Change the digest of one acknowledged, live row behind the
  // workload's back.
  for (const auto& [key, acked] : fleet_.pools().front()->acked_writes()) {
    if (acked.deleted) continue;
    engine::TenantDb* owner = fleet_.cluster()->ResolveForKey(1, key);
    ASSERT_NE(owner, nullptr);
    storage::Record row = *owner->table().Get(key);
    row.digest ^= 1;
    owner->mutable_table()->Put(row);
    break;
  }
  const FleetAudit corrupted = fleet_.Audit();
  EXPECT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.mismatches, 1u);
  EXPECT_EQ(corrupted.coverage_errors, 0u);
  EXPECT_EQ(corrupted.jobs_in_flight, 0u);
}

/// Parses `args` (after a program name) as a bench that takes every
/// fleet flag.
FleetFlags Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  std::string program = "fleet_bench";
  argv.push_back(program.data());
  for (std::string& arg : args) argv.push_back(arg.data());
  FleetFlags flags("out.json", 16, 128, 8);
  ParseFleetFlags(static_cast<int>(argv.size()), argv.data(), &flags);
  return flags;
}

// A traced migration that does not finish in time still holds its
// spans when the testbed goes: the tracer must outlive the cluster.
TEST(TestbedTest, UnfinishedTracedMigrationTearsDownCleanly) {
  ExperimentOptions options;
  options.trace_path = testing::TempDir() + "unfinished_trace.json";
  options.size_scale = 0.05;
  options.warmup_seconds = 2.0;
  {
    Testbed testbed(options);
    MigrationReport report;
    EXPECT_FALSE(testbed.RunMigration(testbed.BaseMigration(), &report, 0,
                                      /*max_seconds=*/1.0, /*drain=*/0.0));
  }
  std::remove(options.trace_path.c_str());
}

TEST(ParseFleetFlagsTest, AcceptsFleetFlagsAndPassesTheRestOn) {
  const FleetFlags flags = Parse({"--smoke", "--servers", "8",
                                  "--fleet-tenants", "64", "--ranges", "4",
                                  "--json", "x.json", "--seed", "7"});
  EXPECT_TRUE(flags.smoke);
  EXPECT_EQ(flags.servers, 8);
  EXPECT_EQ(flags.tenants, 64);
  EXPECT_EQ(flags.ranges, 4u);
  EXPECT_EQ(flags.json_path, "x.json");
  EXPECT_EQ(flags.options.seed, 7u);
}

TEST(ParseFleetFlagsDeathTest, RejectsBadFleetShapes) {
  EXPECT_EXIT(Parse({"--servers", "0"}), ::testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(Parse({"--servers", "abc"}), ::testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(Parse({"--servers", "16", "--fleet-tenants", "130"}),
              ::testing::ExitedWithCode(2), "not a multiple");
  EXPECT_EXIT(Parse({"--ranges", "0"}), ::testing::ExitedWithCode(2),
              "usage");
}

}  // namespace
}  // namespace slacker::bench
