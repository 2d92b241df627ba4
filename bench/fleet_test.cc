// Tests for the bench harness: the JSON writer's exact bytes, the
// end-of-run audit (passing, catching a corrupted row, and after a paper
// testbed migration), the paper testbed's teardown with a migration
// still in flight, and the rejection of malformed flags.

#include "bench/fleet.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/range/range_directory.h"

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

// A whole-tenant move takes every range with it: no range may stay
// behind on a server that no longer holds the tenant.
TEST_F(SmallFleet, AuditPassesAfterWholeTenantMove) {
  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 64.0;
  bool done = false;
  MigrationReport report;
  ASSERT_TRUE(fleet_.cluster()
                  ->StartMigration(1, 1, options,
                                   [&](const MigrationReport& r) {
                                     report = r;
                                     done = true;
                                   })
                  .ok());
  while (!done && fleet_.sim()->Now() < 300.0) {
    fleet_.sim()->RunUntil(fleet_.sim()->Now() + 1.0);
  }
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(fleet_.cluster()->TenantOn(0, 1), nullptr);
  ASSERT_TRUE(fleet_.Finish());
  const FleetAudit audit = fleet_.Audit();
  EXPECT_TRUE(audit.ok());
  EXPECT_EQ(audit.coverage_errors, 0u);
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

/// The paper testbed shrunk to a 51 MB tenant with a short warm-up.
ExperimentOptions SmallPaperTestbed() {
  ExperimentOptions options;
  options.size_scale = 0.05;
  options.warmup_seconds = 2.0;
  return options;
}

// A traced migration that does not finish in time still holds its
// spans when the fleet goes unfinished: the tracer must outlive the
// cluster.
TEST(PaperFleetTest, UnfinishedTracedMigrationTearsDownCleanly) {
  ExperimentOptions options = SmallPaperTestbed();
  options.trace_path = testing::TempDir() + "unfinished_trace.json";
  {
    Fleet fleet(options);
    MigrationReport report;
    EXPECT_FALSE(fleet.RunMigration(fleet.BaseMigration(), &report,
                                    /*max_seconds=*/1.0));
  }
  std::remove(options.trace_path.c_str());
}

TEST(PaperFleetTest, AuditPassesAfterOneMigration) {
  Fleet fleet(SmallPaperTestbed());
  MigrationReport report;
  ASSERT_TRUE(fleet.RunMigration(fleet.BaseMigration(), &report, 600.0));
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  ASSERT_TRUE(fleet.Finish());
  const FleetAudit audit = fleet.Audit();
  EXPECT_EQ(audit.tenants, 1u);
  EXPECT_GT(audit.acked_keys, 0u);
  EXPECT_EQ(fleet.cluster()->TenantOn(0, 1), nullptr);
  EXPECT_NE(fleet.cluster()->TenantOn(1, 1), nullptr);
  for (const range::OwnedRange& owned :
       fleet.cluster()->directory()->RangesOf(1)) {
    EXPECT_EQ(owned.server, 1u);
  }
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

TEST(ParseFleetFlagsTest, ParsesSharedFlags) {
  const FleetFlags flags =
      Parse({"--trace", "t.json", "--csv", "m.csv", "--tenants", "5",
             "--size-scale", "0.25", "--arrival-scale", "1.3", "--warmup",
             "10", "--sla-ms", "500", "--codec", "adaptive"});
  EXPECT_EQ(flags.options.trace_path, "t.json");
  EXPECT_EQ(flags.options.csv_path, "m.csv");
  EXPECT_EQ(flags.options.tenants, 5);
  EXPECT_DOUBLE_EQ(flags.options.size_scale, 0.25);
  EXPECT_DOUBLE_EQ(flags.options.arrival_scale, 1.3);
  EXPECT_DOUBLE_EQ(flags.options.warmup_seconds, 10.0);
  EXPECT_DOUBLE_EQ(flags.options.sla_threshold_ms, 500.0);
  EXPECT_EQ(flags.options.codec_mode, codec::CodecMode::kAdaptive);
}

TEST(ParseFleetFlagsDeathTest, RejectsUnknownFlags) {
  EXPECT_EXIT(Parse({"--size-scal", "0.25"}), ::testing::ExitedWithCode(2),
              "unknown flag --size-scal\nusage");
  // A bench without a JSON default takes no --json.
  std::string program = "bench", flag = "--json", path = "x.json";
  char* argv[] = {program.data(), flag.data(), path.data()};
  FleetFlags flags;
  EXPECT_EXIT(ParseFleetFlags(3, argv, &flags), ::testing::ExitedWithCode(2),
              "unknown flag --json");
}

TEST(ParseFleetFlagsDeathTest, RejectsMissingValues) {
  for (const char* flag : {"--trace", "--seed", "--size-scale", "--codec",
                           "--json", "--servers"}) {
    EXPECT_EXIT(Parse({flag}), ::testing::ExitedWithCode(2),
                std::string(flag) + " needs a value\nusage");
  }
}

TEST(ParseFleetFlagsDeathTest, RejectsMalformedNumbers) {
  const std::vector<std::vector<std::string>> bad = {
      {"--seed", "-1"},          {"--seed", "7x"},
      {"--tenants", "0"},        {"--tenants", "2.5"},
      {"--size-scale", "0"},     {"--size-scale", "abc"},
      {"--size-scale", "nan"},   {"--arrival-scale", "-1"},
      {"--warmup", "-5"},        {"--sla-ms", "1e999"},
  };
  for (const auto& args : bad) {
    EXPECT_EXIT(Parse(args), ::testing::ExitedWithCode(2),
                "bad value '" + args[1] + "' for " + args[0] + "\nusage");
  }
}

TEST(ParseFleetFlagsDeathTest, RejectsUnknownCodec) {
  for (const char* codec : {"zstd", "delta"}) {
    EXPECT_EXIT(Parse({"--codec", codec}), ::testing::ExitedWithCode(2),
                "bad --codec");
  }
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
