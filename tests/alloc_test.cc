// Allocation-regression tests for the continuation path: once the
// event pool, the resource queues and the engine's in-flight window are
// warm, a cached point read and a CPU charge must not touch the heap.
// Nor may a warm transaction, alone or fed by a client pool, beyond the
// binlog's amortized deque blocks. Nor may the target's payload-CRC
// check of an LZ frame, once its shape's CRC tables are built. A
// counting global operator new (this binary only) measures it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/codec/chunk_codec.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/engine/transaction.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/sim/simulator.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

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

// A warm transaction allocates nothing of its own: its frame and the
// writes vector are recycled, the spec comes back for reuse, and the
// binlog record is sized without encoding. What remains is the
// binlog's std::deque, which allocates a block per 12 records (about
// 0.2 per transaction here, two records each). Each removed site cost
// exactly one allocation per transaction, so the 0.5 bound catches any
// one of them coming back.
TEST(AllocTest, WarmSingleUpdateTransactionAllocatesUnderHalf) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  CachedTenant t;
  TxnFrames frames;
  TxnSpec spec;
  spec.tenant_id = 1;
  spec.ops.push_back(Operation{OpType::kUpdate, 0});
  uint64_t committed = 0;
  const double per_txn = AllocationsPerCall([&](int i) {
    spec.txn_id = static_cast<uint64_t>(i) + 1;
    spec.ops[0].key = static_cast<uint64_t>(i) % 1024;
    ExecuteTransaction(&t.sim, &t.db, std::move(spec), t.sim.Now(), &frames,
                       [&](TxnResult& result) {
                         if (result.status.ok() && result.writes.size() == 1) {
                           ++committed;
                         }
                         spec = std::move(result.spec);
                       });
    t.sim.RunAll();
  });
  EXPECT_EQ(committed, static_cast<uint64_t>(kWarmup + kMeasured));
  EXPECT_LT(per_txn, 0.5);
}

struct CachedResolver : workload::TenantResolver {
  TenantDb* db;
  explicit CachedResolver(TenantDb* db) : db(db) {}
  TenantDb* Resolve(uint64_t) override { return db; }
};

// The paper's 10-op 85/15 transaction through the whole client path:
// arrival, spec refill, queueing, execution, acknowledgement. Keys are
// drawn from the first 64 rows so the acked-write ledger is warm too;
// the binlog's deque blocks (about 0.25 per transaction at 1.5 updates
// plus a commit each) are what is left.
TEST(AllocTest, WarmYcsbTransactionThroughClientPoolAllocatesUnderHalf) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  CachedTenant t;
  CachedResolver resolver(&t.db);
  workload::YcsbConfig config;
  config.record_count = 64;
  config.mean_interarrival = 0.05;
  workload::YcsbWorkload ycsb(config, 1, 11);
  workload::ClientPool pool(&t.sim, &ycsb, &resolver);
  pool.Start();
  t.sim.RunUntil(300.0);
  const uint64_t completed_before = pool.stats().completed;
  const uint64_t allocations_before = g_allocations;
  t.sim.RunUntil(600.0);
  const uint64_t completed = pool.stats().completed - completed_before;
  const uint64_t allocations = g_allocations - allocations_before;
  pool.Stop();
  ASSERT_GT(completed, 5000u);
  EXPECT_EQ(pool.stats().failed, 0u);
  EXPECT_EQ(t.db.buffer_pool()->misses(), 0u);
  EXPECT_LT(static_cast<double>(allocations) / completed, 0.5);
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
