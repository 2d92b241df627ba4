// Chaos tests: lost and corrupted migration messages. Snapshot chunks
// carry per-chunk CRCs and are retransmitted via go-back-N NACKs; lost
// *control* messages still stall the migration, and the watchdog must
// abort it cleanly so a retry can succeed.

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/slacker/cluster.h"
#include "src/slacker/fault_injector.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

engine::TenantConfig SmallTenant(uint64_t id = 1) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 32 * 1024;
  config.buffer_pool_bytes = 4 * kMiB;
  return config;
}

MigrationOptions FastWithWatchdog() {
  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 16.0;
  options.prepare.base_seconds = 0.5;
  options.timeout_seconds = 30.0;
  return options;
}

struct Rig {
  sim::Simulator sim;
  Cluster cluster;
  MigrationReport report;
  bool done = false;

  Rig() : cluster(&sim, ClusterOptions{}) {}

  MigrationJob::DoneCallback Done() {
    return [this](const MigrationReport& r) {
      report = r;
      done = true;
    };
  }
};

TEST(FaultInjectionTest, LostSnapshotAckTriggersWatchdogAbort) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  // Drop every snapshot ack from target (1) back to source (0).
  rig.cluster.ChannelBetween(1, 0)->SetDeliveryFilter(
      [](net::Message* m) {
        return m->type != net::MessageType::kSnapshotAck;
      });
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FastWithWatchdog(), rig.Done()).ok());
  rig.sim.RunUntil(60.0);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.report.status.code(), StatusCode::kAborted);
  // Source intact and serving; no half-migrated staging left behind.
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 0u);
  EXPECT_FALSE(rig.cluster.TenantOn(0, 1)->frozen());
  EXPECT_EQ(rig.cluster.TenantOn(1, 1), nullptr);
  EXPECT_GT(rig.cluster.ChannelBetween(1, 0)->messages_dropped(), 0u);
}

TEST(FaultInjectionTest, RetrySucceedsAfterFaultClears) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  rig.cluster.ChannelBetween(1, 0)->SetDeliveryFilter(
      [](net::Message* m) {
        return m->type != net::MessageType::kMigrateAccept;
      });
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FastWithWatchdog(), rig.Done()).ok());
  rig.sim.RunUntil(60.0);
  ASSERT_TRUE(rig.done);
  ASSERT_EQ(rig.report.status.code(), StatusCode::kAborted);

  // Network heals; retry goes through.
  rig.cluster.ChannelBetween(1, 0)->SetDeliveryFilter(nullptr);
  rig.done = false;
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FastWithWatchdog(), rig.Done()).ok());
  rig.sim.RunUntil(160.0);
  ASSERT_TRUE(rig.done);
  EXPECT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  EXPECT_TRUE(rig.report.digest_match);
}

TEST(FaultInjectionTest, CorruptedFramesSurfaceAsChannelErrors) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  int corrupted = 0, errors = 0;
  Rng rng(5);
  net::Channel* data_path = rig.cluster.ChannelBetween(0, 1);
  data_path->SetFrameCorrupter([&](std::vector<uint8_t>* frame) {
    // Flip a byte in ~20% of frames.
    if (!frame->empty() && rng.NextDouble() < 0.2) {
      (*frame)[rng.NextBelow(frame->size())] ^= 0x20;
      ++corrupted;
    }
  });
  data_path->OnError([&](const Status& s) {
    EXPECT_EQ(s.code(), StatusCode::kCorruption);
    ++errors;
  });
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FastWithWatchdog(), rig.Done()).ok());
  rig.sim.RunUntil(120.0);
  // With 20% of the data path corrupted, the CRC must catch every
  // flipped frame (errors == corrupted), and the run must terminate
  // cleanly: either the watchdog aborted (a lost control message), or
  // the migration completed — in which case any lost *chunks* are
  // flagged by the handover digest check rather than passing silently.
  ASSERT_TRUE(rig.done);
  EXPECT_GT(corrupted, 0);
  EXPECT_EQ(errors, corrupted);
  if (!rig.report.status.ok()) {
    EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 0u);
  }
}

TEST(FaultInjectionTest, DroppedChunkIsRetransmittedAndMigrationSucceeds) {
  // Losing a snapshot chunk must not produce a wrong replica OR kill
  // the migration: the target detects the sequence gap, NACKs, and the
  // source rewinds and retransmits (go-back-N).
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  int dropped = 0;
  rig.cluster.ChannelBetween(0, 1)->SetDeliveryFilter(
      [&](net::Message* m) {
        if (m->type == net::MessageType::kSnapshotChunk &&
            m->chunk_seq == 7 && dropped == 0) {
          ++dropped;
          return false;  // Lose exactly one chunk (first transmission).
        }
        return true;
      });
  MigrationOptions options = FastWithWatchdog();
  options.timeout_seconds = 0.0;  // Let the NACK path do the work.
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, options, rig.Done()).ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(dropped, 1);
  EXPECT_TRUE(rig.report.status.ok()) << rig.report.status.ToString();
  EXPECT_TRUE(rig.report.digest_match);
  EXPECT_GT(rig.report.chunks_retransmitted, 0u);
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
  EXPECT_FALSE(rig.cluster.TenantOn(1, 1)->frozen());
}

TEST(FaultInjectionTest, RetransmitBudgetExhaustionAbortsCleanly) {
  // If the fault is persistent (every copy of one chunk dies), the
  // go-back-N loop must not retry forever: the retransmit budget trips
  // and the migration aborts with kCorruption, source intact.
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  rig.cluster.ChannelBetween(0, 1)->SetDeliveryFilter(
      [](net::Message* m) {
        return !(m->type == net::MessageType::kSnapshotChunk &&
                 m->chunk_seq == 7);
      });
  MigrationOptions options = FastWithWatchdog();
  options.timeout_seconds = 0.0;
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, options, rig.Done()).ok());
  rig.sim.RunUntil(240.0);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.report.status.code(), StatusCode::kCorruption);
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 0u);
  EXPECT_FALSE(rig.cluster.TenantOn(0, 1)->frozen());
}

TEST(FaultInjectionTest, WorkloadUnharmedByChannelChaos) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  workload::YcsbConfig ycsb;
  ycsb.record_count = 32 * 1024;
  ycsb.mean_interarrival = 0.4;
  workload::YcsbWorkload workload(ycsb, 1, 13);
  workload::ClientPool pool(&rig.sim, &workload, &rig.cluster,
                            rig.cluster.MakeLatencyObserver());
  rig.cluster.AttachClientPool(1, &pool);
  pool.Start();
  // Drop ALL migration traffic: the migration dies, the tenant's
  // clients never notice.
  rig.cluster.ChannelBetween(0, 1)->SetDeliveryFilter(
      [](net::Message*) { return false; });
  ASSERT_TRUE(
      rig.cluster.StartMigration(1, 1, FastWithWatchdog(), rig.Done()).ok());
  rig.sim.RunUntil(90.0);
  pool.Stop();
  rig.sim.RunUntil(100.0);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.report.status.code(), StatusCode::kAborted);
  EXPECT_EQ(pool.stats().failed, 0u);
  EXPECT_GT(pool.stats().completed, 100u);
}

// ---------------------------------------------------------------------
// Periodic trigger plans: "crash every M seconds" / "partition for N
// seconds every M seconds" re-fire on schedule for exactly `count`
// cycles, then stop.

TEST(PeriodicFaultTest, CrashEveryCyclesServerExactlyCountTimes) {
  Rig rig;
  FaultPlan plan;
  // Crash server 0 at t=1, 11, 21 (3 cycles), each outage 2 s long.
  plan.CrashEvery(/*server_id=*/0, /*first_at=*/1.0, /*every=*/10.0,
                  /*down_for=*/2.0, /*count=*/3);
  FaultInjector injector(&rig.cluster, std::move(plan));
  injector.Arm();

  struct Sample {
    SimTime at;
    bool expect_up;
  };
  const Sample kSamples[] = {
      {0.5, true},  {1.5, false}, {4.0, true},  {11.5, false},
      {14.0, true}, {21.5, false}, {24.0, true}, {34.0, true},
  };
  for (const Sample& sample : kSamples) {
    rig.sim.RunUntil(sample.at);
    EXPECT_EQ(rig.cluster.ServerUp(0), sample.expect_up)
        << "at t=" << sample.at;
  }
  // A 4th cycle must not fire.
  rig.sim.RunUntil(60.0);
  EXPECT_EQ(injector.faults_fired(), 3);
  EXPECT_TRUE(rig.cluster.ServerUp(0));
}

TEST(PeriodicFaultTest, PartitionEveryCutsAndHealsOnSchedule) {
  Rig rig;
  FaultPlan plan;
  // Cut 0<->1 at t=2, 12 (2 cycles), healing 3 s after each cut.
  plan.PartitionEvery(/*a=*/0, /*b=*/1, /*first_at=*/2.0, /*every=*/10.0,
                      /*hold=*/3.0, /*count=*/2);
  FaultInjector injector(&rig.cluster, std::move(plan));
  injector.Arm();

  struct Sample {
    SimTime at;
    bool expect_cut;
  };
  const Sample kSamples[] = {
      {1.0, false}, {3.0, true},  {6.0, false},
      {13.0, true}, {16.0, false}, {26.0, false},
  };
  for (const Sample& sample : kSamples) {
    rig.sim.RunUntil(sample.at);
    EXPECT_EQ(rig.cluster.IsPartitioned(0, 1), sample.expect_cut)
        << "at t=" << sample.at;
  }
  rig.sim.RunUntil(60.0);
  // Two cuts + two heals.
  EXPECT_EQ(injector.faults_fired(), 4);
  EXPECT_FALSE(rig.cluster.IsPartitioned(0, 1));
}

TEST(PeriodicFaultTest, MigrationSurvivesPeriodicPartitions) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant()).ok());
  FaultPlan plan;
  // Brief cuts every 10 s throughout the run; the watchdog aborts any
  // stalled attempt and a later retry lands between cuts.
  plan.PartitionEvery(0, 1, /*first_at=*/2.0, /*every=*/10.0,
                      /*hold=*/0.5, /*count=*/5);
  FaultInjector injector(&rig.cluster, std::move(plan));
  injector.Arm();

  MigrationOptions options = FastWithWatchdog();
  bool landed = false;
  for (int attempt = 0; attempt < 4 && !landed; ++attempt) {
    rig.done = false;
    ASSERT_TRUE(
        rig.cluster.StartMigration(1, 1, options, rig.Done()).ok());
    rig.sim.RunUntil(rig.sim.Now() + 60.0);
    ASSERT_TRUE(rig.done);
    landed = rig.report.status.ok();
  }
  EXPECT_TRUE(landed);
  EXPECT_EQ(injector.faults_fired(), 10);  // 5 cuts + 5 heals.
  EXPECT_EQ(*rig.cluster.directory()->Lookup(1), 1u);
}

}  // namespace
}  // namespace slacker
