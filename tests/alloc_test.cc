// Allocation-regression tests for the continuation path: once the
// event pool, the resource queues and the engine's in-flight window are
// warm, a cached point read and a CPU charge must not touch the heap.
// Nor may the target's payload-CRC check of an LZ frame, once its
// shape's CRC tables are built. A counting global operator new (this
// binary only) measures it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/codec/chunk_codec.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/sim/simulator.h"

namespace {

uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace slacker::engine {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kCountsAllocations = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kCountsAllocations = false;
#else
constexpr bool kCountsAllocations = true;
#endif
#else
constexpr bool kCountsAllocations = true;
#endif

constexpr int kWarmup = 256;
constexpr int kMeasured = 1000;

// 64 pages of rows in a pool that holds all of them: every read hits.
struct CachedTenant {
  sim::Simulator sim;
  resource::DiskModel disk{&sim, resource::DiskOptions{}};
  resource::CpuModel cpu{&sim, resource::CpuOptions{}};
  TenantDb db{&sim, &disk, &cpu, Config()};

  CachedTenant() {
    db.Load();
    db.WarmBufferPool();
  }

  static TenantConfig Config() {
    TenantConfig config;
    config.tenant_id = 1;
    config.layout.record_count = 1024;
    config.buffer_pool_bytes = 64 * 16 * kKiB;
    return config;
  }
};

// Allocations per call of `op` (which must run to completion), after
// kWarmup unmeasured calls.
template <typename Op>
double AllocationsPerCall(Op op) {
  for (int i = 0; i < kWarmup; ++i) op(i);
  const uint64_t before = g_allocations;
  for (int i = 0; i < kMeasured; ++i) op(i);
  return static_cast<double>(g_allocations - before) / kMeasured;
}

TEST(AllocTest, CachedPointReadAllocatesNothing) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  CachedTenant t;
  uint64_t completed = 0;
  const double per_op = AllocationsPerCall([&](int i) {
    t.db.ExecuteOp(Operation{OpType::kRead, static_cast<uint64_t>(i) % 1024},
                   [&completed](Status status, const WrittenRow&) {
                     if (status.ok()) ++completed;
                   });
    t.sim.RunAll();
  });
  EXPECT_EQ(completed, static_cast<uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(t.db.buffer_pool()->misses(), 0u);
  EXPECT_EQ(per_op, 0.0);
}

TEST(AllocTest, ChargeCpuAllocatesNothing) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  CachedTenant t;
  uint64_t charged = 0;
  const double per_call = AllocationsPerCall([&](int) {
    t.db.ChargeCpu(0.001, [&charged] { ++charged; });
    t.sim.RunAll();
  });
  EXPECT_EQ(charged, static_cast<uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(per_call, 0.0);
}

// A 256-row 1 KiB LZ frame: the fig15 chunk shape.
TEST(CodecAllocTest, VerifyPayloadCrcAllocatesNothing) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  Rng rng(0xa110c);
  std::vector<storage::Record> rows;
  for (uint64_t i = 0; i < 256; ++i) {
    rows.push_back(storage::Record{i, 1, rng.Next()});
  }
  codec::CodecConfig config;
  config.mode = codec::CodecMode::kLz;
  config.payload_redundancy = 0.5;
  const codec::EncodedChunk enc =
      codec::EncodeSnapshotChunk(rows, rows.size() * kKiB, codec::Codec::kLz,
                                 config, kKiB, nullptr);
  ASSERT_EQ(enc.frame.codec, codec::Codec::kLz);
  uint64_t verified = 0;
  const double per_call = AllocationsPerCall([&](int) {
    if (codec::VerifyPayloadCrc(enc.frame, rows, kKiB)) ++verified;
  });
  EXPECT_EQ(verified, static_cast<uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(per_call, 0.0);
}

}  // namespace
}  // namespace slacker::engine
