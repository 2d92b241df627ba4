// Tests for the tenant database engine: functional correctness of
// operations, binlog coupling, freeze/drain semantics, simulated I/O
// costs, and transaction execution.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/engine/transaction.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/sim/simulator.h"

namespace slacker::engine {
namespace {

// A small tenant so tests run instantly: 1 MiB of 1 KiB rows, 16 KiB
// pages (64 pages), buffer pool of 16 pages.
TenantConfig SmallConfig(uint64_t id = 1) {
  TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 1024;
  config.buffer_pool_bytes = 16 * 16 * kKiB;
  return config;
}

struct Rig {
  sim::Simulator sim;
  resource::DiskModel disk{&sim, resource::DiskOptions{}};
  resource::CpuModel cpu{&sim, resource::CpuOptions{}};
};

TEST(TenantDbTest, LoadPopulatesTable) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  EXPECT_EQ(db.table().size(), 1024u);
  EXPECT_EQ(db.last_lsn(), 0u);
  EXPECT_NE(db.table().Get(0), nullptr);
  EXPECT_EQ(db.table().Get(0)->lsn, 0u);
}

TEST(TenantDbTest, StateDigestSensitiveToContent) {
  Rig rig;
  TenantDb a(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  TenantDb b(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  a.Load();
  b.Load();
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  b.mutable_table()->Put(storage::Record{0, 1, 12345});
  EXPECT_NE(a.StateDigest(), b.StateDigest());
}

TEST(TenantDbTest, ReadOpCompletesAndCharges) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  bool done = false;
  db.ExecuteOp(Operation{OpType::kRead, 5}, [&](Status s, const WrittenRow&) {
    EXPECT_TRUE(s.ok());
    done = true;
  });
  rig.sim.RunUntil(1.0);
  EXPECT_TRUE(done);
  EXPECT_EQ(db.ops_executed(), 1u);
  // A cold read misses the buffer pool and touches the disk.
  EXPECT_EQ(rig.disk.total_requests(), 1u);
}

// Reads and scans return no row, yet keep their whole simulated cost:
// the CPU charge, the buffer-pool touch, the disk read on a miss and the
// op count. The end times were recorded from the engine that still
// looked each read's row up in the tree.
TEST(TenantDbTest, ReadsAndScansKeepTheirSimulatedCost) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  db.ExecuteOp(Operation{OpType::kDelete, 9}, nullptr);
  rig.sim.RunUntil(1.0);
  const uint64_t requests_before = rig.disk.total_requests();
  // A cold present key, the same key again (its page is resident once
  // the first read touched it), the deleted key on a warm page, a key
  // past the table on a cold page, and a 100-row scan over seven cold
  // pages, all admitted at once.
  const Operation ops[] = {{OpType::kRead, 500},
                           {OpType::kRead, 500},
                           {OpType::kRead, 9},
                           {OpType::kRead, 5000},
                           {OpType::kScan, 100, 100}};
  std::vector<SimTime> ends(std::size(ops), -1.0);
  for (size_t i = 0; i < std::size(ops); ++i) {
    db.ExecuteOp(ops[i], [&, i](Status s, const WrittenRow& w) {
      EXPECT_TRUE(s.ok());
      EXPECT_EQ(w.key, 0u);
      EXPECT_EQ(w.lsn, 0u);
      ends[i] = rig.sim.Now();
    });
  }
  rig.sim.RunUntil(2.0);
  EXPECT_EQ(ends, (std::vector<SimTime>{1.0079736111111111, 1.0003, 1.0003,
                                        1.0156472222222221,
                                        1.0243624999999994}));
  EXPECT_EQ(db.ops_executed(), 6u);
  EXPECT_EQ(rig.disk.total_requests() - requests_before, 9u);
  EXPECT_EQ(db.table().size(), 1023u);
}

TEST(TenantDbTest, BufferHitAvoidsDisk) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  for (int i = 0; i < 2; ++i) {
    db.ExecuteOp(Operation{OpType::kRead, 5}, nullptr);
    rig.sim.RunUntil(rig.sim.Now() + 1.0);
  }
  EXPECT_EQ(rig.disk.total_requests(), 1u);  // Second read hits.
  EXPECT_EQ(db.buffer_pool()->hits(), 1u);
}

TEST(TenantDbTest, UpdateWritesRowAndBinlog) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  WrittenRow written;
  db.ExecuteOp(Operation{OpType::kUpdate, 7},
               [&](Status s, const WrittenRow& w) {
                 ASSERT_TRUE(s.ok());
                 written = w;
               });
  rig.sim.RunUntil(1.0);
  EXPECT_EQ(written.key, 7u);
  EXPECT_EQ(written.lsn, 1u);
  EXPECT_EQ(db.table().Get(7)->digest, written.digest);
  EXPECT_EQ(db.binlog()->record_count(), 1u);
  EXPECT_EQ(db.last_lsn(), 1u);
}

TEST(TenantDbTest, InsertAppendsTailKeys) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  std::vector<uint64_t> keys;
  for (int i = 0; i < 3; ++i) {
    db.ExecuteOp(Operation{OpType::kInsert, 0},
                 [&](Status, const WrittenRow& w) { keys.push_back(w.key); });
  }
  rig.sim.RunUntil(1.0);
  EXPECT_EQ(keys, (std::vector<uint64_t>{1024, 1025, 1026}));
  EXPECT_EQ(db.table().size(), 1027u);
}

TEST(TenantDbTest, DeleteRemovesRow) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  db.ExecuteOp(Operation{OpType::kDelete, 3}, nullptr);
  rig.sim.RunUntil(1.0);
  EXPECT_EQ(db.table().Get(3), nullptr);
  EXPECT_EQ(db.table().size(), 1023u);
}

TEST(TenantDbTest, FreezeQueuesOpsUnfreezeDrains) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  bool drained = false;
  db.Freeze([&] { drained = true; });
  rig.sim.RunUntil(0.1);
  EXPECT_TRUE(drained);  // Nothing in flight.

  bool op_done = false;
  db.ExecuteOp(Operation{OpType::kRead, 1},
               [&](Status s, const WrittenRow&) { op_done = s.ok(); });
  rig.sim.RunUntil(1.0);
  EXPECT_FALSE(op_done);
  EXPECT_EQ(db.queued_ops(), 1u);

  db.Unfreeze();
  rig.sim.RunUntil(2.0);
  EXPECT_TRUE(op_done);
}

TEST(TenantDbTest, FreezeWaitsForInFlight) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  bool op_done = false, drained = false;
  db.ExecuteOp(Operation{OpType::kRead, 1},
               [&](Status, const WrittenRow&) { op_done = true; });
  db.Freeze([&] {
    drained = true;
    EXPECT_TRUE(op_done);  // Drain must come after in-flight completion.
  });
  EXPECT_FALSE(drained);
  rig.sim.RunUntil(1.0);
  EXPECT_TRUE(drained);
}

TEST(TenantDbTest, FailQueuedRejectsWithUnavailable) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  db.Freeze(nullptr);
  Status seen;
  db.ExecuteOp(Operation{OpType::kUpdate, 1},
               [&](Status s, const WrittenRow&) { seen = s; });
  db.FailQueued();
  rig.sim.RunUntil(0.1);
  EXPECT_EQ(seen.code(), StatusCode::kUnavailable);
  EXPECT_EQ(db.queued_ops(), 0u);
  // The failed op must not have touched the table or binlog.
  EXPECT_EQ(db.binlog()->record_count(), 0u);
}

TEST(TenantDbTest, RangeFreezeKeepsOutOfRangeOpsRunning) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  db.Freeze(nullptr, 0, 512);
  bool inside_done = false, outside_done = false;
  db.ExecuteOp(Operation{OpType::kRead, 100},
               [&](Status, const WrittenRow&) { inside_done = true; });
  db.ExecuteOp(Operation{OpType::kUpdate, 600},
               [&](Status, const WrittenRow&) { outside_done = true; });
  rig.sim.RunUntil(1.0);
  EXPECT_TRUE(outside_done);
  EXPECT_FALSE(inside_done);
  EXPECT_EQ(db.queued_ops(), 1u);
  db.Unfreeze();
  rig.sim.RunUntil(2.0);
  EXPECT_TRUE(inside_done);
  EXPECT_FALSE(db.frozen());
}

TEST(TenantDbTest, RangeDrainWaitsOnlyForOverlappingOps) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  // Make key 100's page resident so its op finishes on CPU alone, while
  // key 600 still misses and waits on the disk.
  db.ExecuteOp(Operation{OpType::kRead, 100}, nullptr);
  rig.sim.RunUntil(1.0);
  bool inside_done = false, outside_done = false, drained = false;
  db.ExecuteOp(Operation{OpType::kRead, 600},
               [&](Status, const WrittenRow&) { outside_done = true; });
  db.ExecuteOp(Operation{OpType::kRead, 100},
               [&](Status, const WrittenRow&) { inside_done = true; });
  db.Freeze(
      [&] {
        drained = true;
        EXPECT_TRUE(inside_done);
        EXPECT_FALSE(outside_done);  // Out-of-range work is not waited on.
      },
      0, 512);
  EXPECT_FALSE(drained);
  rig.sim.RunUntil(2.0);
  EXPECT_TRUE(drained);
  EXPECT_TRUE(outside_done);
}

TEST(TenantDbTest, InsertTouchesFrozenRangeIffCursorLandsInIt) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  // The insert cursor sits at 1024, just above every loaded key: an
  // insert ignores op.key and is judged by where it will land.
  db.Freeze(nullptr, 0, 1024);
  uint64_t inserted = 0;
  db.ExecuteOp(Operation{OpType::kInsert, 5},
               [&](Status, const WrittenRow& w) { inserted = w.key; });
  rig.sim.RunUntil(1.0);
  EXPECT_EQ(inserted, 1024u);
  db.Unfreeze();
  db.Freeze(nullptr, 1025, 1026);
  inserted = 0;
  db.ExecuteOp(Operation{OpType::kInsert, 5},
               [&](Status, const WrittenRow& w) { inserted = w.key; });
  rig.sim.RunUntil(2.0);
  EXPECT_EQ(inserted, 0u);
  EXPECT_EQ(db.queued_ops(), 1u);
  db.Unfreeze();
  rig.sim.RunUntil(3.0);
  EXPECT_EQ(inserted, 1025u);
}

TEST(TenantDbTest, FailQueuedKeepsFreezeUntilUnfreeze) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  db.Freeze(nullptr);
  Status first;
  db.ExecuteOp(Operation{OpType::kRead, 1},
               [&](Status s, const WrittenRow&) { first = s; });
  db.FailQueued();
  EXPECT_TRUE(db.frozen());
  bool second_done = false;
  db.ExecuteOp(Operation{OpType::kRead, 2},
               [&](Status s, const WrittenRow&) { second_done = s.ok(); });
  rig.sim.RunUntil(1.0);
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(second_done);  // Still frozen: the new op queued.
  EXPECT_EQ(db.queued_ops(), 1u);
  db.Unfreeze();
  rig.sim.RunUntil(2.0);
  EXPECT_TRUE(second_done);
}

TEST(TenantDbTest, FailInFlightFailsOldestFirstThenQueue) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  std::vector<uint64_t> order;
  auto record = [&](uint64_t key) {
    return [&order, key](Status s, const WrittenRow&) {
      EXPECT_EQ(s.code(), StatusCode::kUnavailable);
      order.push_back(key);
    };
  };
  db.ExecuteOp(Operation{OpType::kRead, 10}, record(10));
  db.ExecuteOp(Operation{OpType::kUpdate, 20}, record(20));
  db.ExecuteOp(Operation{OpType::kRead, 30}, record(30));
  bool drained = false;
  db.Freeze([&] { drained = true; });
  db.ExecuteOp(Operation{OpType::kRead, 40}, record(40));
  db.ExecuteOp(Operation{OpType::kRead, 50}, record(50));
  EXPECT_EQ(db.in_flight(), 3);
  db.FailInFlight(Status::Unavailable("server crashed"));
  EXPECT_EQ(db.in_flight(), 0);
  EXPECT_EQ(db.queued_ops(), 0u);
  rig.sim.RunUntil(1.0);
  EXPECT_EQ(order, (std::vector<uint64_t>{10, 20, 30, 40, 50}));
  EXPECT_TRUE(drained);
  // Late disk/CPU completions of the failed ops are no-ops.
  EXPECT_EQ(db.ops_executed(), 0u);
  EXPECT_EQ(db.binlog()->record_count(), 0u);
}

TEST(TenantDbTest, DestroyedDbRunsNoPendingContinuation) {
  // A crash deletes the db with work still queued on the shared disk
  // and CPU and a drain waiter armed: none of it may run afterwards.
  Rig rig;
  auto db =
      std::make_unique<TenantDb>(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db->Load();  // Cold pool: every read misses.
  int runs = 0;
  db->ExecuteOp(Operation{OpType::kRead, 5},
                [&runs](Status, const WrittenRow&) { ++runs; });
  rig.sim.RunUntil(SmallConfig().cpu_per_op * 1.5);
  ASSERT_EQ(rig.disk.QueueDepth(), 1u);  // The miss is on the disk.
  // Busy every core, then queue one more charge behind them.
  for (int i = 0; i <= rig.cpu.cores(); ++i) {
    db->ChargeCpu(1.0, [&runs] { ++runs; });
  }
  ASSERT_EQ(rig.cpu.queued(), 1u);
  db->Freeze([&runs] { ++runs; });  // Waits on the in-flight read.
  db.reset();
  rig.sim.RunAll();
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(rig.cpu.busy_cores(), 0);
  EXPECT_EQ(rig.cpu.queued(), 0u);
  EXPECT_EQ(rig.disk.QueueDepth(), 0u);
}

TEST(TenantDbDeathTest, NestedFreezeIsFatal) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  db.Freeze(nullptr, 0, 100);
  EXPECT_DEATH(db.Freeze(nullptr, 200, 300), "freeze already active");
  EXPECT_DEATH(db.Freeze(nullptr), "freeze already active");
}

TEST(TenantDbTest, DirtyEvictionIssuesWriteback) {
  Rig rig;
  TenantConfig config = SmallConfig();
  config.buffer_pool_bytes = 2 * 16 * kKiB;  // Two frames only.
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, config);
  db.Load();
  // Dirty page 0, then touch two other pages to evict it.
  db.ExecuteOp(Operation{OpType::kUpdate, 0}, nullptr);
  rig.sim.RunUntil(1.0);
  db.ExecuteOp(Operation{OpType::kRead, 100}, nullptr);
  rig.sim.RunUntil(2.0);
  db.ExecuteOp(Operation{OpType::kRead, 200}, nullptr);
  rig.sim.RunUntil(3.0);
  EXPECT_GT(rig.disk.bytes_written(), 0u);
}

TEST(TenantDbTest, WarmBufferPoolFillsToCapacity) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  db.WarmBufferPool();
  EXPECT_EQ(db.buffer_pool()->resident_pages(), db.buffer_pool()->capacity());
  EXPECT_EQ(db.buffer_pool()->hits(), 0u);  // Stats were reset.
  // Steady-state hit rate under uniform access ~= capacity / pages.
  Rng rng(3);
  int executed = 0;
  for (int i = 0; i < 4000; ++i) {
    db.ExecuteOp(Operation{OpType::kRead, rng.NextBelow(1024)},
                 [&](Status, const WrittenRow&) { ++executed; });
  }
  rig.sim.RunUntil(500.0);
  EXPECT_EQ(executed, 4000);
  // 16 frames / 64 pages = 0.25 expected.
  EXPECT_NEAR(db.buffer_pool()->HitRate(), 0.25, 0.05);
}

TEST(TenantDbTest, WarmBufferPoolSmallTableFullyResident) {
  Rig rig;
  TenantConfig config = SmallConfig();
  config.buffer_pool_bytes = 1024 * 16 * kKiB;  // Frames >> pages.
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, config);
  db.Load();
  db.WarmBufferPool();
  // Only the table's own 64 pages get warmed.
  EXPECT_EQ(db.buffer_pool()->resident_pages(), 64u);
}

TEST(TenantDbTest, SyncCursorsAfterIngest) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  // Simulate ingest: rows with high LSNs and keys beyond record_count.
  db.mutable_table()->Put(storage::Record{5000, 400, 1});
  db.SyncCursorsAfterIngest(400);
  WrittenRow w1, w2;
  db.ExecuteOp(Operation{OpType::kUpdate, 5000},
               [&](Status, const WrittenRow& w) { w1 = w; });
  db.ExecuteOp(Operation{OpType::kInsert, 0},
               [&](Status, const WrittenRow& w) { w2 = w; });
  rig.sim.RunUntil(1.0);
  EXPECT_EQ(w1.lsn, 401u);         // Continues the LSN sequence.
  EXPECT_EQ(w2.key, 5001u);        // Does not collide with ingested keys.
}

TEST(TenantDbTest, DataBytesTracksTableSize) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  EXPECT_EQ(db.DataBytes(), 64u * 16 * kKiB);  // 1024 rows / 16 per page.
}

// ---------------------------------------------------------------- Txn

TEST(TransactionTest, SerialOpsThenCommit) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  TxnSpec spec;
  spec.txn_id = 42;
  for (uint64_t k = 0; k < 10; ++k) {
    spec.ops.push_back(Operation{k % 2 ? OpType::kUpdate : OpType::kRead, k});
  }
  TxnResult result;
  TxnFrames frames;
  ExecuteTransaction(&rig.sim, &db, spec, rig.sim.Now(), &frames,
                     [&](const TxnResult& r) { result = r; });
  rig.sim.RunUntil(5.0);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.txn_id, 42u);
  EXPECT_EQ(result.writes.size(), 5u);
  EXPECT_GT(result.LatencyMs(), 0.0);
  // The spec comes back for a retry.
  EXPECT_EQ(result.spec.txn_id, 42u);
  EXPECT_EQ(result.spec.ops.size(), 10u);
  // 5 writes + 1 commit record.
  EXPECT_EQ(db.binlog()->record_count(), 6u);
}

TEST(TransactionTest, LatencyIncludesQueueTime) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  rig.sim.RunUntil(10.0);
  TxnSpec spec;
  spec.ops.push_back(Operation{OpType::kRead, 1});
  TxnResult result;
  TxnFrames frames;
  // Arrived 2 s ago (was queued).
  ExecuteTransaction(&rig.sim, &db, spec, rig.sim.Now() - 2.0, &frames,
                     [&](const TxnResult& r) { result = r; });
  rig.sim.RunUntil(20.0);
  EXPECT_GE(result.LatencyMs(), 2000.0);
}

TEST(TransactionTest, AbortsOnUnavailableMidTxn) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  TxnSpec spec;
  for (int i = 0; i < 5; ++i) spec.ops.push_back(Operation{OpType::kRead, 1});
  TxnResult result;
  TxnFrames frames;
  ExecuteTransaction(&rig.sim, &db, spec, rig.sim.Now(), &frames,
                     [&](const TxnResult& r) { result = r; });
  // Freeze while the txn is mid-flight, then fail the queued op.
  rig.sim.After(0.001, [&] {
    db.Freeze(nullptr);
    rig.sim.After(0.5, [&] { db.FailQueued(); });
  });
  rig.sim.RunUntil(5.0);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST(TransactionTest, ConcurrentTxnsInterleaveButAllComplete) {
  Rig rig;
  TenantDb db(&rig.sim, &rig.disk, &rig.cpu, SmallConfig());
  db.Load();
  int completed = 0;
  TxnFrames frames;
  for (int t = 0; t < 10; ++t) {
    TxnSpec spec;
    spec.txn_id = t;
    for (uint64_t k = 0; k < 10; ++k) {
      spec.ops.push_back(
          Operation{OpType::kUpdate, (t * 100 + k) % 1024});
    }
    ExecuteTransaction(&rig.sim, &db, spec, rig.sim.Now(), &frames,
                       [&](const TxnResult& r) {
                         EXPECT_TRUE(r.status.ok());
                         ++completed;
                       });
  }
  rig.sim.RunUntil(30.0);
  EXPECT_EQ(completed, 10);
  // Every write got a distinct, monotonically assigned LSN.
  EXPECT_EQ(db.binlog()->record_count(), 100u + 10u);  // +commits.
}

}  // namespace
}  // namespace slacker::engine
