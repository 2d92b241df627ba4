// Unit tests for the resource models: FIFO disk with seek semantics,
// multi-core CPU, network link, and the pv-style token bucket.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/units.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/resource/network_link.h"
#include "src/resource/token_bucket.h"
#include "src/sim/simulator.h"

namespace slacker::resource {
namespace {

DiskOptions TestDisk() {
  DiskOptions d;
  d.seek_time = 0.008;
  d.transfer_bytes_per_sec = 100.0 * kMiB;
  return d;
}

TEST(DiskTest, RandomReadPaysSeekPlusTransfer) {
  sim::Simulator sim;
  DiskModel disk(&sim, TestDisk());
  double done_at = -1;
  disk.Submit(IoKind::kRandomRead, kMiB, [&] { done_at = sim.Now(); });
  sim.RunUntil(1.0);
  EXPECT_NEAR(done_at, 0.008 + 1.0 / 100.0, 1e-9);
}

TEST(DiskTest, FifoQueueingSerializes) {
  sim::Simulator sim;
  DiskModel disk(&sim, TestDisk());
  std::vector<double> completions;
  for (int i = 0; i < 3; ++i) {
    disk.Submit(IoKind::kRandomRead, 0, [&] { completions.push_back(sim.Now()); });
  }
  sim.RunUntil(1.0);
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_NEAR(completions[0], 0.008, 1e-9);
  EXPECT_NEAR(completions[1], 0.016, 1e-9);
  EXPECT_NEAR(completions[2], 0.024, 1e-9);
}

TEST(DiskTest, SequentialSameStreamSkipsSeek) {
  sim::Simulator sim;
  DiskModel disk(&sim, TestDisk());
  std::vector<double> completions;
  disk.Submit(IoKind::kSequentialRead, kMiB,
              [&] { completions.push_back(sim.Now()); }, /*stream_id=*/7);
  disk.Submit(IoKind::kSequentialRead, kMiB,
              [&] { completions.push_back(sim.Now()); }, /*stream_id=*/7);
  sim.RunUntil(1.0);
  ASSERT_EQ(completions.size(), 2u);
  const double transfer = 1.0 / 100.0;
  EXPECT_NEAR(completions[0], 0.008 + transfer, 1e-9);
  // Second chunk: head still positioned, no seek.
  EXPECT_NEAR(completions[1], 0.008 + 2 * transfer, 1e-9);
}

TEST(DiskTest, InterleavedStreamForcesReSeek) {
  sim::Simulator sim;
  DiskModel disk(&sim, TestDisk());
  std::vector<double> completions;
  disk.Submit(IoKind::kSequentialRead, kMiB,
              [&] { completions.push_back(sim.Now()); }, 7);
  disk.Submit(IoKind::kRandomRead, 0,
              [&] { completions.push_back(sim.Now()); }, 1);
  disk.Submit(IoKind::kSequentialRead, kMiB,
              [&] { completions.push_back(sim.Now()); }, 7);
  sim.RunUntil(1.0);
  ASSERT_EQ(completions.size(), 3u);
  const double transfer = 1.0 / 100.0;
  // Third request pays a seek again: the random read moved the head.
  EXPECT_NEAR(completions[2], 0.008 + transfer + 0.008 + 0.008 + transfer,
              1e-9);
}

TEST(DiskTest, UtilizationTracksBusyFraction) {
  sim::Simulator sim;
  DiskModel disk(&sim, TestDisk());
  disk.Submit(IoKind::kRandomRead, 0, nullptr);  // 8 ms of work.
  sim.RunUntil(0.08);
  EXPECT_NEAR(disk.Utilization(), 0.1, 0.01);
}

TEST(DiskTest, StatsCountBytesByDirection) {
  sim::Simulator sim;
  DiskModel disk(&sim, TestDisk());
  disk.Submit(IoKind::kRandomRead, 100, nullptr);
  disk.Submit(IoKind::kRandomWrite, 200, nullptr);
  sim.RunUntil(1.0);
  EXPECT_EQ(disk.bytes_read(), 100u);
  EXPECT_EQ(disk.bytes_written(), 200u);
  EXPECT_EQ(disk.total_requests(), 2u);
}

TEST(DiskTest, WaitStatsGrowUnderBacklog) {
  sim::Simulator sim;
  DiskModel disk(&sim, TestDisk());
  for (int i = 0; i < 10; ++i) disk.Submit(IoKind::kRandomRead, 0, nullptr);
  sim.RunUntil(1.0);
  // First request waits 0; the 10th waits 9 service times.
  EXPECT_NEAR(disk.wait_stats().max(), 9 * 0.008, 1e-9);
}

TEST(CpuTest, ParallelismUpToCores) {
  sim::Simulator sim;
  CpuModel cpu(&sim, CpuOptions{2});
  std::vector<double> completions;
  for (int i = 0; i < 4; ++i) {
    cpu.Submit(1.0, [&] { completions.push_back(sim.Now()); });
  }
  sim.RunUntil(10.0);
  ASSERT_EQ(completions.size(), 4u);
  // Two finish at t=1, two more (queued) at t=2.
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 1.0);
  EXPECT_DOUBLE_EQ(completions[2], 2.0);
  EXPECT_DOUBLE_EQ(completions[3], 2.0);
}

TEST(CpuTest, UtilizationAveragesAcrossCores) {
  sim::Simulator sim;
  CpuModel cpu(&sim, CpuOptions{4});
  cpu.Submit(1.0, nullptr);
  sim.RunUntil(1.0);
  EXPECT_NEAR(cpu.Utilization(), 0.25, 1e-9);
}

TEST(NetworkLinkTest, TransferTimeMatchesBandwidth) {
  sim::Simulator sim;
  NetworkLinkOptions opts;
  opts.bandwidth_bytes_per_sec = 10.0 * kMiB;
  NetworkLink link(&sim, opts);
  double arrival = -1;
  link.Send(10 * kMiB, [&] { arrival = sim.Now(); });
  sim.RunUntil(5.0);
  EXPECT_NEAR(arrival, 1.0 + kLinkLatency, 1e-9);
}

TEST(NetworkLinkTest, TransmissionsSerialize) {
  sim::Simulator sim;
  NetworkLinkOptions opts;
  opts.bandwidth_bytes_per_sec = 10.0 * kMiB;
  NetworkLink link(&sim, opts);
  std::vector<double> arrivals;
  link.Send(10 * kMiB, [&] { arrivals.push_back(sim.Now()); });
  link.Send(10 * kMiB, [&] { arrivals.push_back(sim.Now()); });
  sim.RunUntil(5.0);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 1.0 + kLinkLatency, 1e-9);
  EXPECT_NEAR(arrivals[1], 2.0 + kLinkLatency, 1e-9);
}

TEST(TokenBucketTest, ImmediateGrantWhenTokensAvailable) {
  sim::Simulator sim;
  TokenBucketOptions opts;
  opts.rate_bytes_per_sec = 1000.0;
  opts.burst_bytes = 500;
  TokenBucket bucket(&sim, opts);
  sim.RunUntil(1.0);  // Accrue 500 tokens (capped at burst).
  double granted_at = -1;
  bucket.Acquire(400, [&] { granted_at = sim.Now(); });
  sim.RunUntil(1.0);
  EXPECT_NEAR(granted_at, 1.0, 1e-9);
}

TEST(TokenBucketTest, WaitsForRefill) {
  sim::Simulator sim;
  TokenBucketOptions opts;
  opts.rate_bytes_per_sec = 1000.0;
  opts.burst_bytes = 10000;
  TokenBucket bucket(&sim, opts);
  double granted_at = -1;
  bucket.Acquire(500, [&] { granted_at = sim.Now(); });
  sim.RunUntil(2.0);
  EXPECT_NEAR(granted_at, 0.5, 1e-6);
}

TEST(TokenBucketTest, SustainedRateIsRespected) {
  sim::Simulator sim;
  TokenBucketOptions opts;
  opts.rate_bytes_per_sec = BytesPerSecFromMBps(4.0);
  opts.burst_bytes = 2 * kMiB;
  TokenBucket bucket(&sim, opts);
  uint64_t granted = 0;
  std::function<void()> loop = [&] {
    granted += kMiB;
    bucket.Acquire(kMiB, loop);
  };
  bucket.Acquire(kMiB, loop);
  sim.RunUntil(30.0);
  // 4 MB/s for 30 s = 120 MiB (+ burst slack).
  const double granted_mb = static_cast<double>(granted) / kMiB;
  EXPECT_GE(granted_mb, 118.0);
  EXPECT_LE(granted_mb, 124.0);
}

TEST(TokenBucketTest, OversizeRequestDrainsAcrossRounds) {
  sim::Simulator sim;
  TokenBucketOptions opts;
  opts.rate_bytes_per_sec = 1000.0;
  opts.burst_bytes = 100;  // Request is 10x the burst.
  TokenBucket bucket(&sim, opts);
  double granted_at = -1;
  bucket.Acquire(1000, [&] { granted_at = sim.Now(); });
  sim.RunUntil(5.0);
  EXPECT_NEAR(granted_at, 1.0, 0.01);
}

TEST(TokenBucketTest, RateZeroPausesAndResumeWorks) {
  sim::Simulator sim;
  TokenBucketOptions opts;
  opts.rate_bytes_per_sec = 0.0;
  opts.burst_bytes = 10000;
  TokenBucket bucket(&sim, opts);
  double granted_at = -1;
  bucket.Acquire(100, [&] { granted_at = sim.Now(); });
  sim.RunUntil(5.0);
  EXPECT_EQ(granted_at, -1);  // Paused.
  bucket.SetRate(100.0);
  sim.RunUntil(10.0);
  EXPECT_NEAR(granted_at, 6.0, 0.01);
}

TEST(TokenBucketTest, RateChangeAppliesToWaiters) {
  sim::Simulator sim;
  TokenBucketOptions opts;
  opts.rate_bytes_per_sec = 100.0;
  opts.burst_bytes = 10000;
  TokenBucket bucket(&sim, opts);
  double granted_at = -1;
  bucket.Acquire(1000, [&] { granted_at = sim.Now(); });
  sim.RunUntil(1.0);  // 100 tokens accrued of 1000.
  bucket.SetRate(900.0);
  sim.RunUntil(10.0);
  EXPECT_NEAR(granted_at, 2.0, 0.01);
}

TEST(TokenBucketTest, FifoOrderAmongWaiters) {
  sim::Simulator sim;
  TokenBucketOptions opts;
  opts.rate_bytes_per_sec = 100.0;
  opts.burst_bytes = 1000;
  TokenBucket bucket(&sim, opts);
  std::vector<int> order;
  bucket.Acquire(100, [&] { order.push_back(1); });
  bucket.Acquire(100, [&] { order.push_back(2); });
  bucket.Acquire(100, [&] { order.push_back(3); });
  sim.RunUntil(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TokenBucketTest, BurstCapBoundsIdleAccrual) {
  sim::Simulator sim;
  TokenBucketOptions opts;
  opts.rate_bytes_per_sec = 1000.0;
  opts.burst_bytes = 500;
  TokenBucket bucket(&sim, opts);
  sim.RunUntil(100.0);  // Idle a long time; tokens cap at 500.
  std::vector<double> grants;
  bucket.Acquire(500, [&] { grants.push_back(sim.Now()); });
  bucket.Acquire(500, [&] { grants.push_back(sim.Now()); });
  sim.RunUntil(200.0);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_NEAR(grants[0], 100.0, 1e-6);     // Burst covers the first.
  EXPECT_NEAR(grants[1], 100.5, 1e-3);     // Second must accrue fresh.
}

}  // namespace
}  // namespace slacker::resource
