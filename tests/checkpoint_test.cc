// Tests for checkpoint/crash-recovery: a tenant restarted from its last
// checkpoint plus the binlog suffix must reach exactly the pre-crash
// committed state — for any crash point.

#include <gtest/gtest.h>

#include <utility>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/engine/checkpoint.h"
#include "src/engine/tenant_db.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/sim/simulator.h"
#include "src/storage/packed_rows.h"

namespace slacker::engine {
namespace {

TenantConfig SmallConfig(uint64_t id = 1) {
  TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 512;
  config.buffer_pool_bytes = 8 * 16 * kKiB;
  return config;
}

struct Rig {
  sim::Simulator sim;
  resource::DiskModel disk{&sim, resource::DiskOptions{}};
  resource::CpuModel cpu{&sim, resource::CpuOptions{}};
};

void RunWrites(Rig* rig, TenantDb* db, Rng* rng, int count) {
  for (int i = 0; i < count; ++i) {
    db->ExecuteOp(Operation{OpType::kUpdate, rng->NextBelow(512)}, nullptr);
  }
  rig->sim.RunUntil(rig->sim.Now() + 60.0);
}

TEST(CheckpointTest, TakeAndValidate) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  const CheckpointImage image = TakeCheckpoint(db);
  EXPECT_EQ(image.rows.size(), 512u);
  EXPECT_EQ(image.lsn, 0u);
  EXPECT_EQ(image.LogicalBytes(kKiB), 512 * kKiB);
  // Recovery checks the image's digest as it appends the rows.
  TenantDb recovered(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  ASSERT_TRUE(RecoverFromCheckpoint(image, *db.binlog(), &recovered).ok());
  EXPECT_EQ(recovered.StateDigest(), db.StateDigest());
}

TEST(CheckpointTest, CorruptionDetected) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  CheckpointImage image = TakeCheckpoint(db);
  // The same rows with row 10's digest flipped: packed, it becomes an
  // explicit digest that no longer matches the image's.
  storage::PackedRows corrupt;
  size_t index = 0;
  for (auto it = db.table().Begin(); it.Valid(); it.Next(), ++index) {
    storage::Record row = it.record();
    if (index == 10) row.digest ^= 1;
    corrupt.Append(&row, 1);
  }
  ASSERT_EQ(corrupt.size(), image.rows.size());
  image.rows = std::move(corrupt);
  // The mismatch shows only once every row is in; the table the rows
  // went into is left empty, never partly built.
  TenantDb recovered(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  recovered.Load();
  EXPECT_EQ(RecoverFromCheckpoint(image, *db.binlog(), &recovered)
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(recovered.table().size(), 0u);
}

TEST(CheckpointTest, EditedRowWithUnderivedDigestRecoversExactly) {
  Rig rig;
  Rng rng(73);
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  RunWrites(&rig, &db, &rng, 50);
  // A row whose digest is not RowDigest(key, lsn, kValueSeed): the image
  // must store it explicitly to round-trip it.
  const storage::Record* row = db.table().Get(10);
  ASSERT_NE(row, nullptr);
  const storage::Record edited{row->key, row->lsn, row->digest ^ 0xabcdef};
  db.mutable_table()->Put(edited);
  const uint64_t expected_digest = db.StateDigest();

  const CheckpointImage image = TakeCheckpoint(db);
  TenantDb recovered(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  ASSERT_TRUE(RecoverFromCheckpoint(image, *db.binlog(), &recovered).ok());
  EXPECT_EQ(recovered.StateDigest(), expected_digest);
  ASSERT_NE(recovered.table().Get(10), nullptr);
  EXPECT_EQ(*recovered.table().Get(10), edited);
}

TEST(CheckpointTest, RecoverEqualsPreCrashState) {
  Rig rig;
  Rng rng(71);
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  RunWrites(&rig, &db, &rng, 100);
  const CheckpointImage image = TakeCheckpoint(db);
  RunWrites(&rig, &db, &rng, 150);  // Post-checkpoint writes.
  const uint64_t expected_digest = db.StateDigest();
  const storage::Lsn expected_lsn = db.last_lsn();

  // "Crash": a fresh instance recovers from checkpoint + binlog.
  TenantDb recovered(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  const auto lsn = RecoverFromCheckpoint(image, *db.binlog(), &recovered);
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ(*lsn, expected_lsn);
  EXPECT_EQ(recovered.StateDigest(), expected_digest);
}

TEST(CheckpointTest, RecoveredInstanceContinuesCursors) {
  Rig rig;
  Rng rng(72);
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  RunWrites(&rig, &db, &rng, 50);
  const CheckpointImage image = TakeCheckpoint(db);

  TenantDb recovered(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  ASSERT_TRUE(RecoverFromCheckpoint(image, *db.binlog(), &recovered).ok());
  // New writes continue LSNs past the recovered point — no collisions.
  WrittenRow w;
  recovered.ExecuteOp(Operation{OpType::kUpdate, 1},
                      [&](Status, const WrittenRow& row) { w = row; });
  rig.sim.RunUntil(rig.sim.Now() + 5.0);
  EXPECT_GT(w.lsn, image.lsn);
}

TEST(CheckpointTest, WrongTenantRejected) {
  Rig rig;
  TenantDb a(&rig.sim, &rig.disk, &rig.cpu, SmallConfig(1));
  TenantDb b(&rig.sim, &rig.disk, &rig.cpu, SmallConfig(2));
  a.Load();
  b.Load();
  const CheckpointImage image = TakeCheckpoint(a);
  EXPECT_EQ(RecoverFromCheckpoint(image, *a.binlog(), &b).status().code(),
            StatusCode::kInvalidArgument);
  // Rejected before the table is touched.
  EXPECT_EQ(b.table().size(), 512u);
}

class CrashPointSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashPointSweep, RecoveryIsExactAtEveryCrashPoint) {
  // Write in bursts; checkpoint once; "crash" after GetParam() further
  // bursts; recovery must be exact each time.
  Rig rig;
  Rng rng(100 + GetParam());
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  RunWrites(&rig, &db, &rng, 60);
  const CheckpointImage image = TakeCheckpoint(db);
  for (int burst = 0; burst < GetParam(); ++burst) {
    RunWrites(&rig, &db, &rng, 40);
  }
  TenantDb recovered(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  ASSERT_TRUE(RecoverFromCheckpoint(image, *db.binlog(), &recovered).ok());
  EXPECT_EQ(recovered.StateDigest(), db.StateDigest());
  EXPECT_EQ(recovered.table().size(), db.table().size());
}

INSTANTIATE_TEST_SUITE_P(Bursts, CrashPointSweep,
                         ::testing::Values(0, 1, 2, 5, 8));

}  // namespace
}  // namespace slacker::engine
