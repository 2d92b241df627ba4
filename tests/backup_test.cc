// Tests for the hot-backup streamer (fuzzy snapshot) and the delta
// shipper, including consistency under concurrent writes.

#include <gtest/gtest.h>

#include <vector>

#include "src/backup/delta_shipper.h"
#include "src/backup/hot_backup.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/sim/simulator.h"
#include "src/wal/recovery.h"

namespace slacker::backup {
namespace {

engine::TenantConfig SmallConfig(uint64_t id = 1) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 1024;  // 1 MiB of 1 KiB rows.
  config.buffer_pool_bytes = 16 * 16 * kKiB;
  return config;
}

struct Rig {
  sim::Simulator sim;
  resource::DiskModel disk{&sim, resource::DiskOptions{}};
  resource::CpuModel cpu{&sim, resource::CpuOptions{}};
};

TEST(HotBackupTest, StreamsWholeTableInOrder) {
  Rig rig;
  engine::TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  HotBackupOptions options;
  options.chunk_bytes = 64 * kKiB;  // 64 rows per chunk.
  HotBackupStream stream(&db, options);

  uint64_t rows = 0, last_key = 0;
  bool first = true;
  while (!stream.Done()) {
    const auto chunk = stream.NextChunk();
    for (const auto& r : chunk.rows) {
      if (!first) {
        EXPECT_GT(r.key, last_key);
      }
      last_key = r.key;
      first = false;
      ++rows;
    }
    EXPECT_EQ(chunk.logical_bytes, chunk.rows.size() * kKiB);
  }
  EXPECT_EQ(rows, 1024u);
  EXPECT_EQ(stream.next_seq(), 16u);
  EXPECT_EQ(stream.bytes_produced(), 1024 * kKiB);
}

TEST(HotBackupTest, EmptyTableIsImmediatelyDone) {
  Rig rig;
  engine::TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  HotBackupStream stream(&db, HotBackupOptions{});
  EXPECT_TRUE(stream.Done());
}

TEST(HotBackupTest, CapturesStartLsn) {
  Rig rig;
  engine::TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  db.ExecuteOp(engine::Operation{engine::OpType::kUpdate, 1}, nullptr);
  rig.sim.RunUntil(1.0);
  HotBackupStream stream(&db, HotBackupOptions{});
  EXPECT_EQ(stream.start_lsn(), 1u);
}

TEST(HotBackupTest, FuzzySnapshotPlusDeltaConverges) {
  // Writes land *behind* and *ahead of* the backup cursor while the
  // stream runs; replaying the delta afterwards must reproduce the
  // source exactly.
  Rig rig;
  engine::TenantDb source(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  source.Load();
  Rng rng(99);

  HotBackupOptions options;
  options.chunk_bytes = 32 * kKiB;
  HotBackupStream stream(&source, options);

  storage::BTree copy;
  while (!stream.Done()) {
    const auto chunk = stream.NextChunk();
    for (const auto& r : chunk.rows) copy.Put(r);
    // Interleave concurrent writes (synchronously, via the table+log —
    // the timing layer is irrelevant to this invariant).
    for (int i = 0; i < 5; ++i) {
      source.ExecuteOp(
          engine::Operation{engine::OpType::kUpdate, rng.NextBelow(1024)},
          nullptr);
    }
    rig.sim.RunUntil(rig.sim.Now() + 1.0);
  }

  // The copy alone may be inconsistent (fuzzy); the delta fixes it.
  DeltaShipper shipper(source.binlog(), stream.start_lsn());
  const DeltaRound round = shipper.ReadRound();
  wal::Replay(round.records, &copy);

  ASSERT_EQ(copy.size(), source.table().size());
  for (auto it = source.table().Begin(); it.Valid(); it.Next()) {
    const storage::Record* got = copy.Get(it.record().key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, it.record());
  }
}

TEST(DeltaShipperTest, RoundsShrinkAsWritesStop) {
  Rig rig;
  engine::TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  for (int i = 0; i < 50; ++i) {
    db.ExecuteOp(engine::Operation{engine::OpType::kUpdate,
                                   static_cast<uint64_t>(i)},
                 nullptr);
  }
  rig.sim.RunUntil(5.0);

  DeltaShipper shipper(db.binlog(), 0);
  EXPECT_GT(shipper.PendingBytes(), 0u);
  const DeltaRound round1 = shipper.ReadRound();
  EXPECT_EQ(round1.records.size(), 50u);
  shipper.MarkApplied(round1.to);

  // No further writes: the next round is empty.
  EXPECT_EQ(shipper.PendingBytes(), 0u);
  const DeltaRound round2 = shipper.ReadRound();
  EXPECT_TRUE(round2.empty());
}

TEST(DeltaShipperTest, SuccessiveRoundsCoverDisjointRanges) {
  Rig rig;
  engine::TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  auto write_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      db.ExecuteOp(engine::Operation{engine::OpType::kUpdate,
                                     static_cast<uint64_t>(i)},
                   nullptr);
    }
    rig.sim.RunUntil(rig.sim.Now() + 5.0);
  };
  write_n(10);
  DeltaShipper shipper(db.binlog(), 0);
  const DeltaRound r1 = shipper.ReadRound();
  shipper.MarkApplied(r1.to);
  write_n(7);
  const DeltaRound r2 = shipper.ReadRound();
  EXPECT_EQ(r2.from, r1.to + 1);
  EXPECT_EQ(r2.records.size(), 7u);
  EXPECT_EQ(shipper.rounds_shipped(), 2);
  EXPECT_EQ(shipper.bytes_shipped(), r1.bytes + r2.bytes);
}

TEST(DeltaShipperTest, MarkAppliedNeverRegresses) {
  Rig rig;
  engine::TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  DeltaShipper shipper(db.binlog(), 10);
  shipper.MarkApplied(5);  // Older than current position: ignored.
  EXPECT_EQ(shipper.applied_lsn(), 10u);
}

}  // namespace
}  // namespace slacker::backup
