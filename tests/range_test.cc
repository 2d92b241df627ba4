// Tests for the range-ownership subsystem (DESIGN.md §16): the
// RangeDirectory router, B+-tree-aligned partitioning, range-scoped
// migration jobs (a tenant sharded across servers mid-flight and at
// rest), the FluidMigrator orchestration, the auditor's range
// invariants, a cancel-at-every-phase sweep for a single range job,
// and a router-under-churn property test.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/range/key_range.h"
#include "src/range/partitioner.h"
#include "src/range/range_directory.h"
#include "src/slacker/cluster.h"
#include "src/slacker/fluid_migration.h"
#include "src/slacker/invariant_auditor.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

using range::KeyRange;
using range::kNoUpperBound;
using range::OwnedRange;
using range::RangeDirectory;

// --- RangeDirectory ------------------------------------------------

TEST(RangeDirectoryTest, RegisterSplitMoveMerge) {
  RangeDirectory dir;
  ASSERT_TRUE(dir.RegisterTenant(1, 0).ok());
  EXPECT_TRUE(dir.HasTenant(1));
  EXPECT_EQ(dir.RangeCount(1), 1u);
  EXPECT_EQ(*dir.OwnerOf(1, 0), 0u);
  EXPECT_EQ(*dir.OwnerOf(1, kNoUpperBound - 1), 0u);

  ASSERT_TRUE(dir.Split(1, 1000).ok());
  EXPECT_EQ(dir.RangeCount(1), 2u);
  EXPECT_FALSE(dir.IsSharded(1));  // Split, but one owner.

  ASSERT_TRUE(dir.MoveRange(1, KeyRange{1000, kNoUpperBound}, 2).ok());
  EXPECT_TRUE(dir.IsSharded(1));
  EXPECT_EQ(*dir.OwnerOf(1, 999), 0u);
  EXPECT_EQ(*dir.OwnerOf(1, 1000), 2u);
  EXPECT_EQ(dir.ServersOf(1), (std::vector<uint64_t>{0, 2}));

  // Merge refuses across different owners, works once they agree.
  EXPECT_EQ(dir.MergeAt(1, 0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(dir.MoveRange(1, KeyRange{0, 1000}, 2).ok());
  ASSERT_TRUE(dir.MergeAt(1, 0).ok());
  EXPECT_EQ(dir.RangeCount(1), 1u);
  EXPECT_FALSE(dir.IsSharded(1));
  EXPECT_TRUE(dir.ValidateCoverage(1).ok());
}

TEST(RangeDirectoryTest, MoveRequiresExactRange) {
  RangeDirectory dir;
  ASSERT_TRUE(dir.RegisterTenant(1, 0).ok());
  ASSERT_TRUE(dir.Split(1, 500).ok());
  // A sloppy move could orphan a sliver of keyspace.
  EXPECT_FALSE(dir.MoveRange(1, KeyRange{0, 400}, 1).ok());
  EXPECT_FALSE(dir.MoveRange(1, KeyRange{100, 500}, 1).ok());
  EXPECT_TRUE(dir.MoveRange(1, KeyRange{0, 500}, 1).ok());
  EXPECT_TRUE(dir.ValidateCoverage(1).ok());
}

TEST(RangeDirectoryTest, SplitRejectsDegenerateKeys) {
  RangeDirectory dir;
  ASSERT_TRUE(dir.RegisterTenant(1, 0).ok());
  EXPECT_FALSE(dir.Split(1, 0).ok());
  EXPECT_FALSE(dir.Split(1, kNoUpperBound).ok());
  ASSERT_TRUE(dir.Split(1, 7).ok());
  EXPECT_FALSE(dir.Split(1, 7).ok());  // Already a boundary.
  EXPECT_TRUE(dir.ValidateCoverage(1).ok());
}

TEST(RangeDirectoryTest, VersionBumpsOnEveryMutation) {
  RangeDirectory dir;
  const uint64_t v0 = dir.version();
  ASSERT_TRUE(dir.RegisterTenant(1, 0).ok());
  ASSERT_TRUE(dir.Split(1, 9).ok());
  ASSERT_TRUE(dir.MoveRange(1, KeyRange{0, 9}, 1).ok());
  EXPECT_GE(dir.version(), v0 + 3);
}

TEST(RangeDirectoryTest, RegisterLookupMoveTenantRemove) {
  RangeDirectory dir;
  ASSERT_TRUE(dir.RegisterTenant(5, 0).ok());
  EXPECT_EQ(*dir.Lookup(5), 0u);
  ASSERT_TRUE(dir.Split(5, 100).ok());
  ASSERT_TRUE(dir.MoveTenant(5, 2).ok());
  EXPECT_EQ(*dir.Lookup(5), 2u);
  EXPECT_EQ(dir.ServersOf(5), (std::vector<uint64_t>{2}));
  EXPECT_EQ(dir.RangeCount(5), 2u);  // Moved, not merged.
  ASSERT_TRUE(dir.RemoveTenant(5).ok());
  EXPECT_FALSE(dir.Lookup(5).ok());
}

TEST(RangeDirectoryTest, DuplicateRegisterRejected) {
  RangeDirectory dir;
  ASSERT_TRUE(dir.RegisterTenant(5, 0).ok());
  EXPECT_EQ(dir.RegisterTenant(5, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(*dir.Lookup(5), 0u);
}

TEST(RangeDirectoryTest, UnknownTenantRejected) {
  RangeDirectory dir;
  EXPECT_EQ(dir.Lookup(9).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dir.MoveTenant(9, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(dir.RemoveTenant(9).code(), StatusCode::kNotFound);
}

TEST(RangeDirectoryTest, TenantsOnListsHomedTenantsInIdOrder) {
  RangeDirectory dir;
  ASSERT_TRUE(dir.RegisterTenant(3, 0).ok());
  ASSERT_TRUE(dir.RegisterTenant(1, 0).ok());
  ASSERT_TRUE(dir.RegisterTenant(2, 1).ok());
  EXPECT_EQ(dir.TenantsOn(0), (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(dir.TenantsOn(1), (std::vector<uint64_t>{2}));
  EXPECT_TRUE(dir.TenantsOn(7).empty());
}

TEST(RangeDirectoryTest, HomeMovesOnlyWhenMoveRangeConverges) {
  RangeDirectory dir;
  ASSERT_TRUE(dir.RegisterTenant(1, 0).ok());
  ASSERT_TRUE(dir.Split(1, 1000).ok());
  ASSERT_TRUE(dir.MoveRange(1, KeyRange{1000, kNoUpperBound}, 2).ok());
  EXPECT_EQ(*dir.Lookup(1), 0u);  // Sharded: the home stays put.
  EXPECT_TRUE(dir.TenantsOn(2).empty());
  ASSERT_TRUE(dir.MoveRange(1, KeyRange{0, 1000}, 2).ok());
  EXPECT_EQ(*dir.Lookup(1), 2u);  // Every range on 2: the home follows.
  EXPECT_EQ(dir.TenantsOn(2), (std::vector<uint64_t>{1}));
  EXPECT_TRUE(dir.TenantsOn(0).empty());
}

// --- Partitioner ---------------------------------------------------

TEST(PartitionerTest, RangesCoverKeySpaceAlongSubtreeBoundaries) {
  storage::BTree table;
  for (uint64_t k = 0; k < 4096; ++k) {
    storage::Record r;
    r.key = k;
    table.Put(r);
  }
  const std::vector<uint64_t> splits = range::PartitionSplitKeys(table, 8);
  ASSERT_GE(splits.size(), 1u);
  ASSERT_LE(splits.size(), 7u);
  // Ascending cuts above 0: every range they bound is non-empty, and
  // the last one stays unbounded.
  EXPECT_GT(splits.front(), 0u);
  for (size_t i = 1; i < splits.size(); ++i) {
    EXPECT_GT(splits[i], splits[i - 1]);
  }
  // Every cut is one of the tree's own subtree separators.
  const std::vector<uint64_t> seps =
      table.SubtreeSplitKeys(std::numeric_limits<size_t>::max());
  for (const uint64_t split : splits) {
    EXPECT_TRUE(std::find(seps.begin(), seps.end(), split) != seps.end())
        << "cut " << split << " is not a subtree boundary";
  }
}

TEST(PartitionerTest, TinyTableYieldsSingleRange) {
  storage::BTree table;
  storage::Record r;
  r.key = 42;
  table.Put(r);
  // No cut: the whole key space stays one range.
  EXPECT_TRUE(range::PartitionSplitKeys(table, 8).empty());
}

// --- Range-scoped migration ----------------------------------------

engine::TenantConfig SmallTenant(uint64_t id = 1) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 64 * 1024;
  config.buffer_pool_bytes = 8 * kMiB;
  return config;
}

MigrationOptions FastLive(double mbps = 64.0) {
  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = mbps;
  options.prepare.base_seconds = 0.1;
  return options;
}

// `options` scoped to `key_range`.
MigrationOptions InRange(const KeyRange& key_range,
                         MigrationOptions options = FastLive()) {
  options.range = key_range;
  return options;
}

struct RangeRig {
  sim::Simulator sim;
  Cluster cluster;
  MigrationReport report;
  bool done = false;

  RangeRig(int num_servers = 3) : cluster(&sim, MakeOptions(num_servers)) {}

  static ClusterOptions MakeOptions(int num_servers) {
    ClusterOptions options;
    options.num_servers = num_servers;
    return options;
  }

  MigrationJob::DoneCallback Done() {
    return [this](const MigrationReport& r) {
      report = r;
      done = true;
    };
  }
};

TEST(RangeMigrationTest, TenantRegisteredWithFullRange) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  RangeDirectory* dir = rig.cluster.directory();
  ASSERT_TRUE(dir->HasTenant(1));
  EXPECT_EQ(dir->RangeCount(1), 1u);
  EXPECT_EQ(*dir->OwnerOf(1, 12345), 0u);
  ASSERT_TRUE(rig.cluster.RemoveTenant(1).ok());
  EXPECT_FALSE(dir->HasTenant(1));
}

TEST(RangeMigrationTest, MovesOnlyTheRangeAndShardsTheTenant) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  const uint64_t mid = 32 * 1024;
  ASSERT_TRUE(rig.cluster.SplitTenantRange(1, mid).ok());
  ASSERT_TRUE(rig.cluster
                  .StartMigration(1, 1, InRange(KeyRange{mid, kNoUpperBound}),
                                  rig.Done())
                  .ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  EXPECT_TRUE(rig.report.range_scoped);
  EXPECT_TRUE(rig.report.digest_match);

  // Sharded at rest: low half on server 0, high half on server 1.
  RangeDirectory* dir = rig.cluster.directory();
  EXPECT_TRUE(dir->IsSharded(1));
  EXPECT_EQ(*dir->OwnerOf(1, mid - 1), 0u);
  EXPECT_EQ(*dir->OwnerOf(1, mid), 1u);
  engine::TenantDb* low = rig.cluster.TenantOn(0, 1);
  engine::TenantDb* high = rig.cluster.TenantOn(1, 1);
  ASSERT_NE(low, nullptr);
  ASSERT_NE(high, nullptr);
  EXPECT_FALSE(low->frozen());
  EXPECT_FALSE(high->frozen());
  // Rows moved, not copied: each instance holds exactly its half.
  EXPECT_EQ(low->table().size(), mid);
  EXPECT_EQ(high->table().size(), 64 * 1024 - mid);
  // Per-key routing agrees with the split.
  EXPECT_EQ(rig.cluster.ResolveForKey(1, 0), low);
  EXPECT_EQ(rig.cluster.ResolveForKey(1, mid), high);
  // The home (the whole-tenant view) stays put while the tenant spans
  // servers.
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 0u);  // Home stays put.
}

TEST(RangeMigrationTest, MovingAllRangesConvergesAndRetiresSource) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  const uint64_t mid = 32 * 1024;
  ASSERT_TRUE(rig.cluster.SplitTenantRange(1, mid).ok());
  for (const KeyRange r :
       {KeyRange{mid, kNoUpperBound}, KeyRange{0, mid}}) {
    rig.done = false;
    ASSERT_TRUE(
        rig.cluster.StartMigration(1, 1, InRange(r), rig.Done())
            .ok());
    rig.sim.RunUntil(rig.sim.Now() + 120.0);
    ASSERT_TRUE(rig.done);
    ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  }
  // Converged: source instance retired, home moved to the target.
  EXPECT_EQ(rig.cluster.TenantOn(0, 1), nullptr);
  ASSERT_NE(rig.cluster.TenantOn(1, 1), nullptr);
  EXPECT_EQ(rig.cluster.TenantOn(1, 1)->table().size(), 64u * 1024);
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
  EXPECT_EQ(rig.cluster.directory()->ServersOf(1),
            (std::vector<uint64_t>{1}));
  EXPECT_TRUE(rig.cluster.directory()->ValidateCoverage(1).ok());
}

// The second range to arrive on server 1 merges into the instance the
// first one created. Its handover ack must carry the digest of its own
// range: the whole table's would not match the source's.
TEST(RangeMigrationTest, SharedInstanceAcksTheDigestOfItsOwnRange) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  const uint64_t lo = 16 * 1024;
  const uint64_t hi = 48 * 1024;
  ASSERT_TRUE(rig.cluster.SplitTenantRange(1, lo).ok());
  ASSERT_TRUE(rig.cluster.SplitTenantRange(1, hi).ok());
  ASSERT_TRUE(rig.cluster
                  .StartMigration(1, 1, InRange(KeyRange{hi, kNoUpperBound}),
                                  rig.Done())
                  .ok());
  rig.sim.RunUntil(rig.sim.Now() + 120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();

  std::vector<uint64_t> ack_digests;
  rig.cluster.ChannelBetween(1, 0)->SetDeliveryFilter(
      [&](net::Message* m) {
        if (m->type == net::MessageType::kHandoverAck) {
          ack_digests.push_back(m->digest);
        }
        return true;
      });
  rig.done = false;
  ASSERT_TRUE(rig.cluster
                  .StartMigration(1, 1, InRange(KeyRange{lo, hi}), rig.Done())
                  .ok());
  rig.sim.RunUntil(rig.sim.Now() + 120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  EXPECT_TRUE(rig.report.digest_match);

  const engine::TenantDb* target = rig.cluster.TenantOn(1, 1);
  ASSERT_NE(target, nullptr);
  EXPECT_EQ(target->table().size(), 64u * 1024 - lo);
  ASSERT_EQ(ack_digests.size(), 1u);
  EXPECT_EQ(ack_digests[0], target->StateDigest(lo, hi));
  EXPECT_NE(ack_digests[0], target->StateDigest());
}

TEST(RangeMigrationTest, GranularityOneFullRangeJobMatchesWholeTenant) {
  // Compatibility mode: a single range job over [0, kNoUpperBound)
  // lands exactly where a whole-tenant migration would.
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  ASSERT_TRUE(rig.cluster
                  .StartMigration(1, 1, InRange(KeyRange{0, kNoUpperBound}),
                                  rig.Done())
                  .ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  EXPECT_TRUE(rig.report.digest_match);
  EXPECT_EQ(rig.cluster.TenantOn(0, 1), nullptr);
  ASSERT_NE(rig.cluster.TenantOn(1, 1), nullptr);
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
  EXPECT_FALSE(rig.cluster.directory()->IsSharded(1));
}

TEST(RangeMigrationTest, WholeTenantMoveRejectsShardedTenant) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  const uint64_t mid = 32 * 1024;
  ASSERT_TRUE(rig.cluster.SplitTenantRange(1, mid).ok());
  ASSERT_TRUE(rig.cluster
                  .StartMigration(1, 1, InRange(KeyRange{mid, kNoUpperBound}),
                                  rig.Done())
                  .ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  ASSERT_TRUE(rig.cluster.directory()->IsSharded(1));
  // A whole-tenant move would ship only server 0's half and strand the
  // range directory's entries on a deleted instance.
  rig.done = false;
  EXPECT_EQ(rig.cluster.StartMigration(1, 2, FastLive(), rig.Done()).code(),
            StatusCode::kFailedPrecondition);
  rig.sim.RunUntil(rig.sim.Now() + 120.0);
  EXPECT_FALSE(rig.done);
  EXPECT_NE(rig.cluster.ResolveForKey(1, 0), nullptr);
  EXPECT_NE(rig.cluster.ResolveForKey(1, mid), nullptr);
  EXPECT_EQ(rig.cluster.TenantOn(2, 1), nullptr);
}

// A whole-tenant move flips every range with the home, so range-level
// operations after it start from the tenant's real location.
TEST(RangeMigrationTest, WholeMoveMovesEveryRangeAndHome) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, FastLive(), rig.Done()).ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  EXPECT_EQ(*rig.cluster.directory()->OwnerOf(1, 0), 1u);
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);

  // A fluid move back plans from server 1 and lands on server 0.
  FluidMigrationOptions options;
  options.target_ranges = 4;
  options.migration = FastLive();
  FluidMigrationReport report;
  bool done = false;
  FluidMigrator migrator(&rig.cluster, 1, 0, options,
                         [&](const FluidMigrationReport& r) {
                           report = r;
                           done = true;
                         });
  ASSERT_TRUE(migrator.Start().ok());
  rig.sim.RunUntil(rig.sim.Now() + 300.0);
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_GE(report.ranges_moved, 1u);
  EXPECT_NE(rig.cluster.TenantOn(0, 1), nullptr);
  EXPECT_EQ(rig.cluster.TenantOn(1, 1), nullptr);
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 0u);
  EXPECT_TRUE(rig.cluster.RemoveTenant(1).ok());
}

// The source instance stays live until handover: removing the tenant
// mid-move would free it under the job's snapshot stream.
TEST(RangeMigrationTest, RemoveTenantWaitsForInFlightMove) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FastLive(/*mbps=*/1.0), rig.Done())
          .ok());
  rig.sim.RunUntil(2.0);
  ASSERT_FALSE(rig.done);
  EXPECT_EQ(rig.cluster.RemoveTenant(1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(rig.cluster.directory()->HasTenant(1));
  rig.sim.RunUntil(600.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
  EXPECT_TRUE(rig.cluster.RemoveTenant(1).ok());
  EXPECT_FALSE(rig.cluster.directory()->HasTenant(1));
}

TEST(RangeMigrationTest, SplitUnshardedTenantMovesWhole) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  ASSERT_TRUE(rig.cluster.SplitTenantRange(1, 16 * 1024).ok());
  ASSERT_TRUE(rig.cluster.SplitTenantRange(1, 48 * 1024).ok());
  ASSERT_FALSE(rig.cluster.directory()->IsSharded(1));
  ASSERT_TRUE(rig.cluster.StartMigration(1, 2, FastLive(), rig.Done()).ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  const std::vector<OwnedRange> ranges = rig.cluster.directory()->RangesOf(1);
  ASSERT_EQ(ranges.size(), 3u);
  for (const OwnedRange& owned : ranges) {
    EXPECT_EQ(owned.server, 2u) << owned.range.ToString();
  }
  EXPECT_EQ(rig.cluster.TenantOn(0, 1), nullptr);
  ASSERT_NE(rig.cluster.TenantOn(2, 1), nullptr);
  EXPECT_EQ(rig.cluster.ResolveForKey(1, 0), rig.cluster.TenantOn(2, 1));
}

TEST(RangeMigrationTest, RejectsUnregisteredRangeAndBadModes) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  // Not a registered unit.
  EXPECT_EQ(rig.cluster
                .StartMigration(1, 1, InRange(KeyRange{0, 100}), rig.Done())
                .code(),
            StatusCode::kInvalidArgument);
  // Empty range fails validation.
  MigrationOptions bad = FastLive();
  bad.range = KeyRange{100, 100};
  EXPECT_FALSE(bad.Validate().ok());
  // Stop-and-copy cannot be range-scoped.
  bad.range = KeyRange{0, 100};
  bad.mode = MigrationMode::kStopAndCopy;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(RangeMigrationTest, UnderLoadLosesNoAckedWrite) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  workload::YcsbConfig ycsb;
  ycsb.record_count = 64 * 1024;
  ycsb.ops_per_txn = 1;  // Single-op txns route exactly by key.
  ycsb.mean_interarrival = 0.02;
  workload::YcsbWorkload workload(ycsb, 1, 13);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  pool.set_route_by_key(true);
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();
  rig.sim.RunUntil(3.0);

  const uint64_t mid = 32 * 1024;
  ASSERT_TRUE(rig.cluster.SplitTenantRange(1, mid).ok());
  ASSERT_TRUE(rig.cluster
                  .StartMigration(1, 1,
                                  InRange(KeyRange{mid, kNoUpperBound},
                                          FastLive(32.0)),
                                  rig.Done())
                  .ok());
  rig.sim.RunUntil(150.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  pool.Stop();
  rig.sim.RunUntil(rig.sim.Now() + 20.0);
  EXPECT_EQ(pool.stats().failed, 0u);

  // Every acknowledged write is present (or superseded) on the range's
  // current owner.
  ASSERT_FALSE(pool.acked_writes().empty());
  RangeDirectory* dir = rig.cluster.directory();
  for (const auto& [key, acked] : pool.acked_writes()) {
    engine::TenantDb* owner_db =
        rig.cluster.TenantOn(*dir->OwnerOf(1, key), 1);
    ASSERT_NE(owner_db, nullptr);
    const storage::Record* row = owner_db->table().Get(key);
    ASSERT_NE(row, nullptr) << "lost acked write to key " << key;
    EXPECT_GE(row->lsn, acked.lsn);
    if (row->lsn == acked.lsn) {
      EXPECT_EQ(row->digest, acked.digest);
    }
  }
}

TEST(RangeMigrationTest, SecondConcurrentJobOfATenantIsRefused) {
  // Sharded: [0, mid) on server 0, [mid, inf) on server 1.
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  const uint64_t mid = 32 * 1024;
  const KeyRange high{mid, kNoUpperBound};
  ASSERT_TRUE(rig.cluster.SplitTenantRange(1, mid).ok());
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, InRange(high), rig.Done()).ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();

  // Both owners could start a job, but the target holds one staging
  // session per tenant: the second job must be refused, not left to
  // wait in negotiate forever.
  rig.done = false;
  ASSERT_TRUE(rig.cluster
                  .StartMigration(1, 2, InRange(KeyRange{0, mid}), rig.Done())
                  .ok());
  EXPECT_EQ(rig.cluster
                .StartMigration(1, 2, InRange(high),
                                [](const MigrationReport&) {})
                .code(),
            StatusCode::kFailedPrecondition);
  rig.sim.RunUntil(rig.sim.Now() + 120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();

  // Once the first job is done the refused range moves too.
  rig.done = false;
  ASSERT_TRUE(rig.cluster.StartMigration(1, 2, InRange(high), rig.Done()).ok());
  rig.sim.RunUntil(rig.sim.Now() + 120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  EXPECT_EQ(rig.cluster.directory()->ServersOf(1),
            (std::vector<uint64_t>{2}));
  EXPECT_EQ(rig.cluster.TenantOn(2, 1)->table().size(), 64u * 1024);
}

// --- FluidMigrator --------------------------------------------------

TEST(FluidMigrationTest, MovesWholeTenantRangeByRange) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  FluidMigrationOptions options;
  options.target_ranges = 4;
  options.migration = FastLive();
  FluidMigrationReport report;
  bool done = false;
  FluidMigrator migrator(&rig.cluster, 1, 1, options,
                         [&](const FluidMigrationReport& r) {
                           report = r;
                           done = true;
                         });
  ASSERT_TRUE(migrator.Start().ok());
  rig.sim.RunUntil(300.0);
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_GE(report.ranges_moved, 2u);
  EXPECT_EQ(report.ranges_moved, report.ranges_planned);
  EXPECT_GT(report.max_downtime_ms, 0.0);
  EXPECT_GE(report.total_downtime_ms, report.max_downtime_ms);

  // Converged onto the target, merged back to a single range.
  EXPECT_EQ(rig.cluster.TenantOn(0, 1), nullptr);
  ASSERT_NE(rig.cluster.TenantOn(1, 1), nullptr);
  EXPECT_EQ(rig.cluster.TenantOn(1, 1)->table().size(), 64u * 1024);
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
  EXPECT_EQ(rig.cluster.directory()->RangeCount(1), 1u);
  EXPECT_TRUE(rig.cluster.directory()->ValidateCoverage(1).ok());
}

TEST(FluidMigrationTest, GranularityOneIsWholeTenantCompatibilityMode) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  FluidMigrationOptions options;
  options.target_ranges = 1;  // No splits: one full-range job.
  options.migration = FastLive();
  FluidMigrationReport report;
  bool done = false;
  FluidMigrator migrator(&rig.cluster, 1, 1, options,
                         [&](const FluidMigrationReport& r) {
                           report = r;
                           done = true;
                         });
  ASSERT_TRUE(migrator.Start().ok());
  rig.sim.RunUntil(300.0);
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.ranges_planned, 1u);
  EXPECT_EQ(report.ranges_moved, 1u);
  EXPECT_EQ(rig.cluster.directory()->RangeCount(1), 1u);
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
}

// --- Auditor range invariants (death tests) ------------------------

TEST(RangeInvariantDeathTest, BadCoverageIsFatal) {
  InvariantAuditor auditor;
  auditor.OnRangeCoverage(1, Status::Ok());  // Fine.
  EXPECT_DEATH(
      auditor.OnRangeCoverage(1, Status::Internal("hole at key 7")),
      "range coverage");
}

TEST(RangeInvariantDeathTest, MisroutedOpIsFatal) {
  InvariantAuditor auditor;
  auditor.OnOpRouted(1, 42, 3, 3);  // Owner served: fine.
  EXPECT_DEATH(auditor.OnOpRouted(1, 42, 2, 3), "owns the range");
}

// --- Cancel sweep for a single range job ---------------------------

// Mirrors the tenant-level CancelAtEveryPhase sweep: before handover a
// cancel aborts the range job and the source keeps range ownership; at
// handover it is too late and the range lands on the target.
TEST(RangeCancelTest, CancelAtEveryPhase) {
  const MigrationPhase kPhases[] = {
      MigrationPhase::kNegotiate, MigrationPhase::kSnapshot,
      MigrationPhase::kPrepare, MigrationPhase::kDelta,
      MigrationPhase::kHandover};
  const uint64_t mid = 32 * 1024;
  for (const MigrationPhase phase : kPhases) {
    SCOPED_TRACE(MigrationPhaseName(phase));
    RangeRig rig;
    ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
    ASSERT_TRUE(rig.cluster.SplitTenantRange(1, mid).ok());
    // Live writes keep the delta phase observable.
    workload::YcsbConfig ycsb;
    ycsb.record_count = 64 * 1024;
    ycsb.ops_per_txn = 1;
    ycsb.mean_interarrival = 0.005;
    workload::YcsbWorkload workload(ycsb, 1, 9);
    workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                              rig.cluster.MakeLatencyObserver());
    pool.set_route_by_key(true);
    rig.cluster.AttachClientPool(1, &pool);
    pool.Start();
    MigrationOptions options = FastLive(16.0);
    options.prepare.base_seconds = 0.5;
    options.delta_handover_bytes = 0;
    options.range = KeyRange{mid, kNoUpperBound};
    ASSERT_TRUE(rig.cluster.StartMigration(1, 1, options, rig.Done()).ok());
    bool cancelled = false;
    bool too_late = false;
    while (!rig.done && rig.sim.Now() < 120.0) {
      MigrationJob* job = rig.cluster.ActiveJob(1);
      if (job != nullptr && job->phase() == phase) {
        const Status status = rig.cluster.CancelMigration(1, "range sweep");
        if (phase == MigrationPhase::kHandover) {
          EXPECT_EQ(status.code(), StatusCode::kTooLateToCancel);
          too_late = true;
        } else {
          EXPECT_TRUE(status.ok()) << status.ToString();
          cancelled = true;
        }
        break;
      }
      rig.sim.RunUntil(rig.sim.Now() + 0.001);
    }
    rig.sim.RunUntil(rig.sim.Now() + 60.0);
    pool.Stop();
    ASSERT_TRUE(rig.done);
    RangeDirectory* dir = rig.cluster.directory();
    EXPECT_TRUE(dir->ValidateCoverage(1).ok());
    if (phase == MigrationPhase::kHandover) {
      ASSERT_TRUE(too_late);
      EXPECT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
      EXPECT_EQ(*dir->OwnerOf(1, mid), 1u);
      EXPECT_NE(rig.cluster.TenantOn(1, 1), nullptr);
    } else {
      ASSERT_TRUE(cancelled);
      EXPECT_EQ(rig.report.status.code(), StatusCode::kAborted);
      // Source keeps the range; no staging residue on the target; the
      // source serves without any lingering range freeze.
      EXPECT_EQ(*dir->OwnerOf(1, mid), 0u);
      ASSERT_NE(rig.cluster.TenantOn(0, 1), nullptr);
      EXPECT_FALSE(rig.cluster.TenantOn(0, 1)->frozen());
      EXPECT_EQ(rig.cluster.TenantOn(1, 1), nullptr);
    }
  }
}

// A job runs on its range's owner, which need not be the tenant's
// home; the cluster must still find it to report and cancel it.
TEST(RangeCancelTest, CancelsJobOnNonHomeOwner) {
  RangeRig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  const uint64_t mid = 32 * 1024;
  const KeyRange high{mid, kNoUpperBound};
  ASSERT_TRUE(rig.cluster.SplitTenantRange(1, mid).ok());
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, InRange(high), rig.Done()).ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(rig.done);
  ASSERT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  ASSERT_EQ(*rig.cluster.directory()->Lookup(1), 0u);  // Home stays put.

  rig.done = false;
  ASSERT_TRUE(rig.cluster.StartMigration(1, 2, InRange(high), rig.Done()).ok());
  MigrationJob* job = rig.cluster.ActiveJob(1);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job, rig.cluster.server(1)->controller()->ActiveJob(1));
  EXPECT_TRUE(rig.cluster.CancelMigration(1, "non-home owner").ok());
  rig.sim.RunUntil(rig.sim.Now() + 60.0);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.report.status.code(), StatusCode::kAborted);
  EXPECT_EQ(rig.cluster.ActiveJob(1), nullptr);
  // Server 1 keeps the range; nothing is left staged on server 2.
  EXPECT_EQ(*rig.cluster.directory()->OwnerOf(1, mid), 1u);
  EXPECT_EQ(rig.cluster.TenantOn(2, 1), nullptr);
  EXPECT_TRUE(rig.cluster.directory()->ValidateCoverage(1).ok());
}

// --- Router under churn (property test) ----------------------------

// Randomized split / range migrate / merge / whole migrate interleavings
// with live per-key routed reads and writes: no row is ever lost or
// double-applied, and the router names every key's real owner. The
// RNG is seeded, so a failure replays deterministically.
TEST(RangeChurnPropertyTest, SplitMigrateMergeNeverLosesOrDoublesRows) {
  constexpr uint64_t kRecords = 16 * 1024;
  constexpr int kServers = 3;
  constexpr int kActions = 40;

  RangeRig rig(kServers);
  engine::TenantConfig config = SmallTenant();
  config.layout.record_count = kRecords;
  ASSERT_TRUE(rig.cluster.AddTenant(0, config).ok());

  workload::YcsbConfig ycsb;
  ycsb.record_count = kRecords;
  ycsb.ops_per_txn = 1;
  ycsb.mean_interarrival = 0.01;
  workload::YcsbWorkload workload(ycsb, 1, 31);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  pool.set_route_by_key(true);
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();

  Rng rng(0xC0FFEE);
  RangeDirectory* dir = rig.cluster.directory();
  int migrations_launched = 0;
  int whole_launched = 0;
  for (int action = 0; action < kActions; ++action) {
    rig.sim.RunUntil(rig.sim.Now() + 1.5);
    const uint64_t key = rng.NextBelow(kRecords - 2) + 1;
    switch (rng.NextBelow(4)) {
      case 0:
        // Ignore failures: the key may already be a boundary.
        (void)rig.cluster.SplitTenantRange(1, key);
        break;
      case 1: {
        const Result<OwnedRange> owned = dir->RangeContaining(1, key);
        if (!owned.ok()) break;
        const uint64_t target = rng.NextBelow(kServers);
        if (target == owned->server) break;
        // Busy tenants reject a second concurrent job; that is fine.
        const Status started = rig.cluster.StartMigration(
            1, target, InRange(owned->range, FastLive(128.0)),
            [](const MigrationReport&) {});
        if (started.ok()) ++migrations_launched;
        break;
      }
      case 2:
        (void)rig.cluster.MergeTenantRange(1, key);
        break;
      case 3: {
        // Whole-tenant move, the other job shape; only an unsharded
        // tenant may take it.
        if (dir->IsSharded(1)) break;
        const uint64_t target = rng.NextBelow(kServers);
        if (target == *dir->Lookup(1)) break;
        const Status started = rig.cluster.StartMigration(
            1, target, FastLive(128.0), [](const MigrationReport&) {});
        if (started.ok()) ++whole_launched;
        break;
      }
    }
    EXPECT_TRUE(dir->ValidateCoverage(1).ok());
  }
  ASSERT_GT(migrations_launched, 3);
  ASSERT_GT(whole_launched, 0);
  // Quiesce: let the last migration and every in-flight op drain.
  rig.sim.RunUntil(rig.sim.Now() + 120.0);
  pool.Stop();
  rig.sim.RunUntil(rig.sim.Now() + 30.0);

  EXPECT_TRUE(dir->ValidateCoverage(1).ok());
  EXPECT_GT(rig.cluster.auditor()->checks_passed(), 0u);

  // No double-apply: no key may exist on two instances at once.
  uint64_t total_rows = 0;
  for (uint64_t key = 0; key < kRecords; ++key) {
    int copies = 0;
    for (int s = 0; s < kServers; ++s) {
      engine::TenantDb* db = rig.cluster.TenantOn(s, 1);
      if (db != nullptr && db->table().Get(key) != nullptr) ++copies;
    }
    EXPECT_LE(copies, 1) << "key " << key << " double-applied";
    total_rows += copies;
  }
  // No loss: preloaded rows are all still there (the single-op YCSB
  // stream updates and reads; deletes are checked via acks below).
  // Every acknowledged write survives on the range's current owner.
  for (const auto& [key, acked] : pool.acked_writes()) {
    const Result<uint64_t> owner = dir->OwnerOf(1, key);
    ASSERT_TRUE(owner.ok());
    engine::TenantDb* db = rig.cluster.TenantOn(*owner, 1);
    ASSERT_NE(db, nullptr);
    const storage::Record* row = db->table().Get(key);
    ASSERT_NE(row, nullptr) << "lost acked write to key " << key;
    EXPECT_GE(row->lsn, acked.lsn);
    if (row->lsn == acked.lsn) {
      EXPECT_EQ(row->digest, acked.digest);
    }
  }
  // Conservation: the default mix has no inserts or deletes, so after
  // quiescing every preloaded row exists exactly once fleet-wide.
  EXPECT_EQ(total_rows, kRecords);
}

}  // namespace
}  // namespace slacker
