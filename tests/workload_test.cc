// Tests for the transactional-YCSB workload: op mix, key choosers, the
// open-loop Poisson generator, MPL queueing in the client pool, retry
// semantics, and time-series reductions.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/common/random.h"
#include "src/common/time_series.h"
#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/sim/simulator.h"
#include "src/workload/client_pool.h"
#include "src/workload/key_chooser.h"
#include "src/workload/ycsb.h"

namespace slacker::workload {
namespace {

engine::TenantConfig SmallConfig(uint64_t id = 1) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 1024;
  config.buffer_pool_bytes = 64 * 16 * kKiB;
  return config;
}

YcsbConfig SmallYcsb() {
  YcsbConfig config;
  config.record_count = 1024;
  config.mean_interarrival = 0.05;
  return config;
}

// ---------------------------------------------------------------- Config

TEST(YcsbConfigTest, DefaultsValid) {
  EXPECT_TRUE(YcsbConfig().Validate().ok());
}

TEST(YcsbConfigTest, RejectsBadMixAndParams) {
  YcsbConfig config;
  config.mix.read = 0.5;  // Sums to 0.65.
  EXPECT_FALSE(config.Validate().ok());
  config = YcsbConfig();
  config.ops_per_txn = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = YcsbConfig();
  config.mean_interarrival = 0;
  EXPECT_FALSE(config.Validate().ok());
}

// ---------------------------------------------------------------- Chooser

TEST(KeyChooserTest, UniformCoversRange) {
  auto chooser = KeyChooser::Create(KeyDistribution::kUniform, 100);
  Rng rng(1);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[chooser->Next(&rng)];
  EXPECT_EQ(counts.size(), 100u);
  for (const auto& [k, c] : counts) {
    EXPECT_LT(k, 100u);
    EXPECT_NEAR(c, 1000, 200);
  }
}

TEST(KeyChooserTest, ZipfianSkewsAndScrambles) {
  auto chooser = KeyChooser::Create(KeyDistribution::kZipfian, 1000, 0.99);
  Rng rng(2);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[chooser->Next(&rng)];
  int max_count = 0;
  uint64_t hottest = 0;
  for (const auto& [k, c] : counts) {
    if (c > max_count) {
      max_count = c;
      hottest = k;
    }
  }
  // Hot key dominates but is NOT key 0 (scrambled).
  EXPECT_GT(max_count, 100000 / 1000 * 10);
  EXPECT_NE(hottest, 0u);
}

TEST(KeyChooserTest, LatestPrefersNewKeys) {
  auto chooser = KeyChooser::Create(KeyDistribution::kLatest, 1000, 0.99);
  Rng rng(3);
  int high_half = 0;
  for (int i = 0; i < 10000; ++i) high_half += chooser->Next(&rng) >= 500;
  EXPECT_GT(high_half, 8000);
}

// ---------------------------------------------------------------- Workload

TEST(YcsbWorkloadTest, OpMixMatchesConfiguration) {
  YcsbConfig config = SmallYcsb();
  YcsbWorkload workload(config, 1, 42);
  int reads = 0, updates = 0, total = 0;
  engine::TxnSpec spec;
  for (int t = 0; t < 2000; ++t) {
    workload.NextTxn(&spec);  // Refilled in place, not appended to.
    EXPECT_EQ(spec.ops.size(), 10u);
    for (const auto& op : spec.ops) {
      reads += op.type == engine::OpType::kRead;
      updates += op.type == engine::OpType::kUpdate;
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(reads) / total, 0.85, 0.02);
  EXPECT_NEAR(static_cast<double>(updates) / total, 0.15, 0.02);
}

TEST(YcsbWorkloadTest, TxnIdsMonotone) {
  YcsbWorkload workload(SmallYcsb(), 1, 42);
  uint64_t prev = 0;
  engine::TxnSpec spec;
  for (int i = 0; i < 100; ++i) {
    workload.NextTxn(&spec);
    EXPECT_GT(spec.txn_id, prev);
    prev = spec.txn_id;
    EXPECT_EQ(spec.tenant_id, 1u);
  }
}

TEST(YcsbWorkloadTest, DeterministicForSeed) {
  YcsbWorkload a(SmallYcsb(), 1, 7), b(SmallYcsb(), 1, 7);
  // A recycled spec and a fresh one get the same transaction.
  engine::TxnSpec sa;
  for (int i = 0; i < 50; ++i) {
    engine::TxnSpec sb;
    a.NextTxn(&sa);
    b.NextTxn(&sb);
    ASSERT_EQ(sa.ops.size(), sb.ops.size());
    for (size_t j = 0; j < sa.ops.size(); ++j) {
      EXPECT_EQ(sa.ops[j].key, sb.ops[j].key);
      EXPECT_EQ(sa.ops[j].type, sb.ops[j].type);
    }
    EXPECT_DOUBLE_EQ(a.NextInterarrival(), b.NextInterarrival());
  }
}

TEST(YcsbWorkloadTest, PoissonInterarrivalsHaveConfiguredMean) {
  YcsbWorkload workload(SmallYcsb(), 1, 11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(workload.NextInterarrival());
  EXPECT_NEAR(stats.mean(), 0.05, 0.002);
  EXPECT_NEAR(stats.stddev() / stats.mean(), 1.0, 0.05);  // CV of exp = 1.
}

TEST(YcsbWorkloadTest, ScaleArrivalRateShortensInterarrivals) {
  YcsbWorkload workload(SmallYcsb(), 1, 13);
  workload.ScaleArrivalRate(1.4);  // +40%, the Fig. 13a step.
  EXPECT_NEAR(workload.mean_interarrival(), 0.05 / 1.4, 1e-12);
}

// ---------------------------------------------------------------- TimeSeries

TEST(TimeSeriesTest, SmoothedWindowAverages) {
  common::TimeSeries series;
  for (int t = 0; t < 10; ++t) series.Add(t, t * 10.0);
  const auto smoothed = series.Smoothed(1.0, 3.0);
  ASSERT_FALSE(smoothed.empty());
  // At t=9 the closed window [6,9] holds 60,70,80,90.
  EXPECT_DOUBLE_EQ(smoothed.back().value, 75.0);
}

TEST(TimeSeriesTest, SmoothedRepeatsOnEmptyWindows) {
  common::TimeSeries series;
  series.Add(0.0, 100.0);
  series.Add(10.0, 200.0);
  const auto smoothed = series.Smoothed(1.0, 1.0, 0.0, 10.0);
  ASSERT_EQ(smoothed.size(), 11u);
  EXPECT_DOUBLE_EQ(smoothed[5].value, 100.0);  // Gap holds the last value.
  EXPECT_DOUBLE_EQ(smoothed[10].value, 200.0);
}

TEST(TimeSeriesTest, StatsBetweenBounds) {
  common::TimeSeries series;
  for (int t = 0; t < 100; ++t) series.Add(t, t);
  const auto stats = series.StatsBetween(10, 19);
  EXPECT_EQ(stats.count(), 10u);
  EXPECT_DOUBLE_EQ(stats.mean(), 14.5);
}

TEST(TimeSeriesTest, CsvFormat) {
  common::TimeSeries series;
  series.Add(1.5, 2.5);
  const std::string csv = series.ToCsv("latency_ms");
  EXPECT_EQ(csv, "t,latency_ms\n1.5,2.5\n");
}

// ---------------------------------------------------------------- ClientPool

struct PoolRig : public TenantResolver {
  sim::Simulator sim;
  resource::DiskModel disk;
  resource::CpuModel cpu{&sim, resource::CpuOptions{}};
  engine::TenantDb db;

  explicit PoolRig(engine::TenantConfig config = SmallConfig(),
                   resource::DiskOptions disk_options = {})
      : disk(&sim, disk_options), db(&sim, &disk, &cpu, config) {
    db.Load();
  }
  engine::TenantDb* Resolve(uint64_t) override { return &db; }
};

TEST(ClientPoolTest, OpenLoopCompletesTransactions) {
  PoolRig rig;
  YcsbWorkload workload(SmallYcsb(), 1, 5);
  ClientPool pool(&rig.sim, &workload, &rig);
  pool.Start();
  rig.sim.RunUntil(30.0);
  pool.Stop();
  rig.sim.RunUntil(40.0);
  // ~30s / 0.05s = ~600 arrivals.
  EXPECT_GT(pool.stats().completed, 400u);
  EXPECT_EQ(pool.stats().failed, 0u);
  EXPECT_EQ(pool.stats().completed, pool.latencies().count());
  EXPECT_GT(pool.latencies().Mean(), 0.0);
}

TEST(ClientPoolDeathTest, KeyRoutingRequiresSingleOpTransactions) {
  PoolRig rig;
  YcsbConfig config = SmallYcsb();
  config.ops_per_txn = 10;
  YcsbWorkload workload(config, 1, 5);
  ClientPool pool(&rig.sim, &workload, &rig);
  pool.set_route_by_key(true);
  // Routing by the first op's key would ack later ops on a server that
  // may not own their keys.
  EXPECT_DEATH(pool.Start(), "ops_per_txn");
}

TEST(ClientPoolTest, ArrivalRateMatchesPoisson) {
  PoolRig rig;
  YcsbConfig config = SmallYcsb();
  config.mean_interarrival = 0.02;  // 50/s.
  YcsbWorkload workload(config, 1, 5);
  ClientPool pool(&rig.sim, &workload, &rig);
  pool.Start();
  rig.sim.RunUntil(100.0);
  pool.Stop();
  EXPECT_NEAR(pool.stats().arrivals / 100.0, 50.0, 3.0);
}

// Arrivals and their specs are drawn alternately from the workload's
// own rng, never from server state, and a retry reuses its drawn spec.
// So one seed gives one arrival stream however fast the server is, and
// runs that differ only in how they migrate see the same arrivals.
TEST(ClientPoolTest, ArrivalStreamIsIndependentOfServiceSpeed) {
  engine::TenantConfig config = SmallConfig();
  config.buffer_pool_bytes = 8 * 16 * kKiB;  // Misses reach the disk.
  resource::DiskOptions slow_disk;
  slow_disk.seek_time *= 4.0;
  slow_disk.transfer_bytes_per_sec /= 4.0;
  PoolRig fast_rig(config);
  PoolRig slow_rig(config, slow_disk);
  YcsbWorkload fast_workload(SmallYcsb(), 1, 11);
  YcsbWorkload slow_workload(SmallYcsb(), 1, 11);
  ClientPool fast(&fast_rig.sim, &fast_workload, &fast_rig);
  ClientPool slow(&slow_rig.sim, &slow_workload, &slow_rig);
  fast.Start();
  slow.Start();
  fast_rig.sim.RunUntil(30.0);
  slow_rig.sim.RunUntil(30.0);

  // The servers really differ...
  EXPECT_GT(slow.latencies().Mean(), 2.0 * fast.latencies().Mean());
  EXPECT_NE(fast.stats().completed, slow.stats().completed);
  // ...and the arrival streams do not.
  EXPECT_GT(fast.stats().arrivals, 400u);
  EXPECT_EQ(fast.stats().arrivals, slow.stats().arrivals);
  EXPECT_EQ(fast_workload.txns_generated(), slow_workload.txns_generated());
  EXPECT_EQ(fast_workload.NextInterarrival(),
            slow_workload.NextInterarrival());
  engine::TxnSpec a, b;
  fast_workload.NextTxn(&a);
  slow_workload.NextTxn(&b);
  EXPECT_EQ(a.txn_id, b.txn_id);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].type, b.ops[i].type);
    EXPECT_EQ(a.ops[i].key, b.ops[i].key);
    EXPECT_EQ(a.ops[i].scan_length, b.ops[i].scan_length);
  }
  fast.Stop();
  slow.Stop();
}

TEST(ClientPoolTest, MplBoundsConcurrency) {
  PoolRig rig;
  YcsbConfig config = SmallYcsb();
  config.mean_interarrival = 0.001;  // Overload: 1000 txn/s.
  YcsbWorkload workload(config, 1, 5);
  ClientPool pool(&rig.sim, &workload, &rig);
  pool.Start();
  bool saw_queue = false;
  for (int i = 0; i < 100; ++i) {
    rig.sim.RunUntil(rig.sim.Now() + 0.05);
    EXPECT_LE(pool.busy_clients(), ClientPool::kMpl);
    saw_queue = saw_queue || pool.queue_depth() > 0;
  }
  pool.Stop();
  EXPECT_TRUE(saw_queue);
  EXPECT_GT(pool.stats().max_queue_depth, 0u);
}

TEST(ClientPoolTest, LatencyIncludesQueueingUnderOverload) {
  // Small buffer pool (8 of 64 pages) so ops are disk-bound: the
  // server sustains ~140 ops/s, below the heavy run's demand.
  engine::TenantConfig disk_bound = SmallConfig();
  disk_bound.buffer_pool_bytes = 8 * 16 * kKiB;
  YcsbConfig fast = SmallYcsb(), slow = SmallYcsb();
  fast.mean_interarrival = 0.2;    // 50 ops/s: under capacity.
  slow.mean_interarrival = 0.005;  // 2000 ops/s: far beyond capacity.

  PoolRig light_rig(disk_bound);
  YcsbWorkload light_workload(fast, 1, 5);
  ClientPool light(&light_rig.sim, &light_workload, &light_rig);
  light.Start();
  light_rig.sim.RunUntil(30.0);
  light.Stop();

  PoolRig heavy_rig(disk_bound);
  YcsbWorkload heavy_workload(slow, 1, 5);
  ClientPool heavy(&heavy_rig.sim, &heavy_workload, &heavy_rig);
  heavy.Start();
  heavy_rig.sim.RunUntil(30.0);
  heavy.Stop();

  // Under overload the client queue grows, so latency is dominated by
  // queueing and far exceeds the light run's.
  EXPECT_GT(heavy.latencies().Percentile(95),
            light.latencies().Percentile(95) * 3);
  EXPECT_GT(heavy.stats().max_queue_depth, 100u);
}

TEST(ClientPoolTest, OldestOutstandingAge) {
  PoolRig rig;
  YcsbWorkload workload(SmallYcsb(), 1, 5);
  ClientPool pool(&rig.sim, &workload, &rig);
  EXPECT_DOUBLE_EQ(pool.OldestOutstandingAgeMs(rig.sim.Now()), 0.0);
  // Freeze the db so transactions pile up.
  rig.db.Freeze(nullptr);
  pool.Start();
  rig.sim.RunUntil(5.0);
  EXPECT_GT(pool.OldestOutstandingAgeMs(rig.sim.Now()), 1000.0);
  rig.db.Unfreeze();
  rig.sim.RunUntil(20.0);
  pool.Stop();
}

// A rig whose resolver can be switched off: while it is, transactions
// back off and retry (keeping their arrival time).
struct GatedPoolRig : PoolRig {
  bool available = true;
  engine::TenantDb* Resolve(uint64_t) override {
    return available ? &db : nullptr;
  }
};

TEST(ClientPoolTest, OldestOutstandingAgeSurvivesOutOfOrderCompletion) {
  YcsbConfig config = SmallYcsb();
  config.ops_per_txn = 1;  // One key per transaction.
  // A twin stream replays the pool's draws: an interarrival, then the
  // transaction, per arrival. The pool schedules each arrival at
  // Now() + draw, so the sums below are its arrival times exactly.
  YcsbWorkload twin(config, 1, 5);
  std::vector<SimTime> arrivals;
  std::vector<uint64_t> keys;
  engine::TxnSpec spec;
  for (SimTime t = 0.0; t < 10.0;) {
    t += twin.NextInterarrival();
    twin.NextTxn(&spec);
    arrivals.push_back(t);
    keys.push_back(spec.ops[0].key);
  }
  const auto first_arrival_after = [&](SimTime t) {
    return *std::upper_bound(arrivals.begin(), arrivals.end(), t);
  };

  GatedPoolRig rig;
  YcsbWorkload workload(config, 1, 5);
  ClientPool pool(&rig.sim, &workload, &rig);
  // Only the oldest transaction's key is frozen, so later ones finish
  // first; the age still counts from the oldest arrival.
  rig.db.Freeze(nullptr, keys[0], keys[0] + 1);
  pool.Start();
  rig.sim.RunUntil(2.0);
  EXPECT_GT(pool.stats().completed, 10u);
  EXPECT_DOUBLE_EQ(pool.OldestOutstandingAgeMs(rig.sim.Now()),
                   MsFromSeconds(rig.sim.Now() - arrivals[0]));

  // New arrivals now find no replica and retry with backoff.
  rig.available = false;
  rig.sim.RunUntil(2.3);
  EXPECT_DOUBLE_EQ(pool.OldestOutstandingAgeMs(rig.sim.Now()),
                   MsFromSeconds(rig.sim.Now() - arrivals[0]));

  // Once the oldest completes, the age falls to the next outstanding
  // arrival: the first one after the resolver went away, retried
  // several times since but still aged from when it arrived.
  rig.db.Unfreeze();
  rig.sim.RunUntil(2.5);
  EXPECT_GT(pool.stats().retries, 5u);
  EXPECT_DOUBLE_EQ(pool.OldestOutstandingAgeMs(rig.sim.Now()),
                   MsFromSeconds(rig.sim.Now() - first_arrival_after(2.0)));

  // A drained pool has nothing outstanding.
  rig.available = true;
  pool.Stop();
  rig.sim.RunUntil(20.0);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.busy_clients(), 0);
  EXPECT_EQ(pool.stats().failed, 0u);
  EXPECT_EQ(pool.stats().completed, pool.stats().arrivals);
  EXPECT_DOUBLE_EQ(pool.OldestOutstandingAgeMs(rig.sim.Now()), 0.0);
}

TEST(ClientPoolTest, RetriesOnUnavailableAndSucceeds) {
  PoolRig rig;
  YcsbConfig config = SmallYcsb();
  config.mean_interarrival = 0.1;
  YcsbWorkload workload(config, 1, 5);
  ClientPool pool(&rig.sim, &workload, &rig);
  pool.Start();
  rig.sim.RunUntil(5.0);
  // Freeze, fail everything queued, unfreeze: clients must retry and
  // ultimately succeed (resolver still returns the same db).
  rig.db.Freeze(nullptr);
  rig.sim.RunUntil(7.0);
  rig.db.FailQueued();
  rig.db.Unfreeze();
  rig.sim.RunUntil(20.0);
  pool.Stop();
  rig.sim.RunUntil(30.0);
  EXPECT_GT(pool.stats().retries, 0u);
  EXPECT_EQ(pool.stats().failed, 0u);
}

// A resolver outage backs transactions off with their clients freed.
// When a backoff ends with every client busy, the transaction waits at
// the head of the queue instead of taking an eleventh client.
TEST(ClientPoolTest, ResolverOutageKeepsMplBound) {
  struct OutageRig : PoolRig {
    engine::TenantDb* Resolve(uint64_t id) override {
      const bool outage = sim.Now() >= 2.0 && sim.Now() < 2.5;
      return outage ? nullptr : PoolRig::Resolve(id);
    }
  } rig;
  YcsbConfig config = SmallYcsb();
  config.mean_interarrival = 0.002;  // 500 arrivals/s.
  YcsbWorkload workload(config, 1, 5);
  ClientPool pool(&rig.sim, &workload, &rig);
  pool.Start();
  int max_busy = 0;
  while (rig.sim.Now() < 10.0) {
    rig.sim.RunUntil(rig.sim.Now() + 0.001);
    max_busy = std::max(max_busy, pool.busy_clients());
  }
  pool.Stop();
  rig.sim.RunUntil(60.0);
  EXPECT_LE(max_busy, ClientPool::kMpl);
  EXPECT_EQ(max_busy, ClientPool::kMpl);
  EXPECT_GT(pool.stats().retries, 0u);
  EXPECT_EQ(pool.stats().failed, 0u);
  EXPECT_EQ(pool.stats().completed, pool.stats().arrivals);
  EXPECT_EQ(pool.busy_clients(), 0);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ClientPoolTest, AckedWritesTrackNewestLsn) {
  PoolRig rig;
  YcsbConfig config = SmallYcsb();
  config.mix.read = 0.0;
  config.mix.update = 1.0;
  config.record_count = 8;  // Few keys: lots of overwrite.
  YcsbWorkload workload(config, 1, 5);
  ClientPool pool(&rig.sim, &workload, &rig);
  pool.Start();
  rig.sim.RunUntil(10.0);
  pool.Stop();
  rig.sim.RunUntil(20.0);
  ASSERT_FALSE(pool.acked_writes().empty());
  for (const auto& [key, acked] : pool.acked_writes()) {
    const storage::Record* row = rig.db.table().Get(key);
    ASSERT_NE(row, nullptr);
    EXPECT_GE(row->lsn, acked.lsn);
    if (row->lsn == acked.lsn) {
      EXPECT_EQ(row->digest, acked.digest);
    }
  }
}

TEST(AckedWriteLedgerTest, KeepsNewestWritePerKeyThroughGrowth) {
  Rng rng(17);
  AckedWriteLedger ledger;
  std::map<uint64_t, AckedWrite> model;
  for (int i = 0; i < 20000; ++i) {
    // Sparse keys with a dense hot prefix: repeated keys take the
    // overwrite path, new ones force the table to grow.
    const uint64_t key =
        rng.NextDouble() < 0.5 ? rng.NextBelow(64) : rng.Next() >> 20;
    const AckedWrite write{1 + rng.NextBelow(1000), rng.Next()};
    ledger.Record(key, write);
    AckedWrite& expect = model[key];
    if (write.lsn > expect.lsn) expect = write;
  }
  ASSERT_EQ(ledger.size(), model.size());
  std::map<uint64_t, AckedWrite> listed;
  for (const auto& [key, acked] : ledger) {
    ASSERT_TRUE(listed.emplace(key, acked).second) << "key " << key;
  }
  ASSERT_EQ(listed.size(), model.size());
  for (const auto& [key, expect] : model) {
    const AckedWrite& got = listed.at(key);
    EXPECT_EQ(got.lsn, expect.lsn) << "key " << key;
    EXPECT_EQ(got.digest, expect.digest) << "key " << key;
  }
}

}  // namespace
}  // namespace slacker::workload
