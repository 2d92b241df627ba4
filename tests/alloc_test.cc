// Allocation-regression tests for the continuation path: once the
// event pool, the resource queues and the engine's in-flight window are
// warm, a cached point read and a CPU charge must not touch the heap.
// Nor may a warm transaction, alone or fed by a client pool, beyond the
// binlog's amortized storage chunks, which hold 9 bytes per record. Nor
// may the target's payload-CRC check of an LZ frame, once its shape's
// CRC tables are built; and a migration message encodes into its one
// frame buffer and decodes into a reused message without a copy. A
// tenant's ascending load keeps its B+-tree leaves in blocks sized to
// their rows, and its checkpoint packs each row into about 2 bytes. A
// counting global operator new (this binary only) counts calls and
// bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/codec/chunk_codec.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/engine/checkpoint.h"
#include "src/engine/tenant_db.h"
#include "src/engine/transaction.h"
#include "src/net/message.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/sim/simulator.h"
#include "src/storage/btree.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace {

uint64_t g_allocations = 0;
uint64_t g_allocated_bytes = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  g_allocated_bytes += size;
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

struct HeapUse {
  double allocations = 0.0;
  double bytes = 0.0;
};

// Allocations and bytes allocated per call of `op` (which must run to
// completion), after kWarmup unmeasured calls.
template <typename Op>
HeapUse HeapPerCall(Op op) {
  for (int i = 0; i < kWarmup; ++i) op(i);
  const uint64_t allocations = g_allocations;
  const uint64_t bytes = g_allocated_bytes;
  for (int i = 0; i < kMeasured; ++i) op(i);
  return HeapUse{
      static_cast<double>(g_allocations - allocations) / kMeasured,
      static_cast<double>(g_allocated_bytes - bytes) / kMeasured};
}

template <typename Op>
double AllocationsPerCall(Op op) {
  return HeapPerCall(op).allocations;
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

// Heap use per warm single-update transaction (an update record and a
// commit record each) through ExecuteTransaction.
HeapUse WarmSingleUpdates() {
  CachedTenant t;
  TxnFrames frames;
  TxnSpec spec;
  spec.tenant_id = 1;
  spec.ops.push_back(Operation{OpType::kUpdate, 0});
  uint64_t committed = 0;
  const HeapUse per_txn = HeapPerCall([&](int i) {
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
  return per_txn;
}

// A warm transaction allocates nothing of its own: its frame and the
// writes vector are recycled, the spec comes back for reuse, and the
// binlog record is sized without encoding. What remains is the
// binlog's storage chunks, one per 512 records (about 0.004 per
// transaction here). Each removed site cost exactly one allocation per
// transaction, so the 0.5 bound catches any one of them coming back.
TEST(AllocTest, WarmSingleUpdateTransactionAllocatesUnderHalf) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  EXPECT_LT(WarmSingleUpdates().allocations, 0.5);
}

// The binlog keeps one 8-byte word and one type byte per record, so a
// transaction's two records cost 18 bytes of chunk storage; the bound
// leaves room for the chunk pointers and nothing else.
TEST(AllocTest, WarmSingleUpdateTransactionAllocatesAtMost24Bytes) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  EXPECT_LE(WarmSingleUpdates().bytes, 24.0);
}

// An ascending load splits each leaf at 65 rows and never writes into
// the lower 32 again; they sit in a 33-slot block of 824 bytes, about
// 26 bytes a row with the internal nodes. In a full 65-slot block they
// cost 1,584 bytes, about 49.5 a row.
TEST(AllocTest, AscendingLoadAllocatesUnder28BytesPerRow) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  constexpr uint64_t kRows = 16 * 1024;
  std::vector<storage::Record> rows;
  for (uint64_t key = 0; key < kRows; ++key) {
    rows.push_back(storage::Record{key, 0, key * 31});
  }
  const uint64_t bytes = g_allocated_bytes;
  storage::BTree tree;
  tree.AppendSorted(rows.data(), rows.size());
  const double per_row =
      static_cast<double>(g_allocated_bytes - bytes) / kRows;
  EXPECT_EQ(tree.size(), kRows);
  EXPECT_LE(per_row, 28.0);
}

// A checkpoint packs a loaded row into a byte of key gap and a byte of
// LSN, and reserves exactly that up front; the image of 24-byte
// Records it replaced took 24 bytes a row. Bytes allocated bound the
// bytes the image holds.
TEST(AllocTest, CheckpointOfLoadedTenantHoldsUnder3BytesPerRow) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  constexpr uint64_t kRows = 16 * 1024;
  sim::Simulator sim;
  resource::DiskModel disk{&sim, resource::DiskOptions{}};
  resource::CpuModel cpu{&sim, resource::CpuOptions{}};
  TenantConfig config;
  config.tenant_id = 1;
  config.layout.record_count = kRows;
  TenantDb db{&sim, &disk, &cpu, config};
  db.Load();
  const uint64_t bytes = g_allocated_bytes;
  const CheckpointImage image = TakeCheckpoint(db);
  const double per_row =
      static_cast<double>(g_allocated_bytes - bytes) / kRows;
  EXPECT_EQ(image.rows.size(), kRows);
  EXPECT_LT(per_row, 3.0);
}

struct CachedResolver : workload::TenantResolver {
  TenantDb* db;
  explicit CachedResolver(TenantDb* db) : db(db) {}
  TenantDb* Resolve(uint64_t) override { return db; }
};

// The paper's 10-op 85/15 transaction through the whole client path:
// arrival, spec refill, queueing, execution, acknowledgement. Keys are
// drawn from the first 64 rows so the acked-write ledger is warm too;
// the binlog's storage chunks (one per 512 records) are what is left.
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
                                 config, kKiB);
  ASSERT_EQ(enc.frame.codec, codec::Codec::kLz);
  uint64_t verified = 0;
  const double per_call = AllocationsPerCall([&](int) {
    if (codec::VerifyPayloadCrc(enc.frame, rows, kKiB)) ++verified;
  });
  EXPECT_EQ(verified, static_cast<uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(per_call, 0.0);
}

// A fig15-shaped LZ encode: the payload goes to this thread's reused
// buffer, so the caller's copy of the rows, moved into the result, is
// the only allocation.
TEST(CodecAllocTest, LzEncodeAllocatesOnlyItsRowCopy) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  Rng rng(0xa110e);
  std::vector<storage::Record> rows;
  for (uint64_t i = 0; i < 256; ++i) {
    rows.push_back(storage::Record{i, 1, rng.Next()});
  }
  codec::CodecConfig config;
  config.mode = codec::CodecMode::kLz;
  config.payload_redundancy = 0.5;
  uint64_t lz_frames = 0;
  const double per_call = AllocationsPerCall([&](int) {
    const codec::EncodedChunk enc = codec::EncodeSnapshotChunk(
        rows, rows.size() * kKiB, codec::Codec::kLz, config, kKiB);
    if (enc.frame.codec == codec::Codec::kLz) ++lz_frames;
  });
  EXPECT_EQ(lz_frames, static_cast<uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(per_call, 1.0);
}

// A fig15-shaped LZ snapshot chunk with every extension: the frame is
// the only allocation, sized once from the message's closed-form size.
TEST(MessageAllocTest, EncodeMessageAllocatesOnlyItsFrame) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  Rng rng(0xa110d);
  net::Message m;
  m.type = net::MessageType::kSnapshotChunk;
  m.tenant_id = 3;
  m.chunk_seq = 41;
  m.payload_bytes = 256 * kKiB;
  for (uint64_t i = 0; i < 256; ++i) {
    m.rows.push_back(storage::Record{rng.Next(), i + 1, rng.Next()});
  }
  m.frame.codec = codec::Codec::kLz;
  m.frame.logical_bytes = 256 * kKiB;
  m.frame.encoded_bytes = 131000;
  m.negotiation.software_version = 3;
  m.negotiation.feature_mask = 3;
  m.range_lo = 1000;
  m.range_hi = 2000;
  size_t bytes = 0;
  const double per_call = AllocationsPerCall(
      [&](int) { bytes += net::EncodeMessage(m).size(); });
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(per_call, 1.0);
}

// A 256-row LZ snapshot chunk of a range job, with the codec and
// negotiation extensions, decoded into one reused Message: the payload
// is parsed where it lies in the frame, the rows fill the vector the
// previous decode left, and each extension's CRC is taken over the
// bytes it consumed, so a warm decode touches no heap (a payload copy
// made one allocation per decode, re-encoding the extensions to check
// their CRCs nine).
TEST(MessageAllocTest, DecodeIntoReusedMessageAllocatesNothing) {
  if (!kCountsAllocations) GTEST_SKIP() << "ASan replaces operator new";
  Rng rng(0xa110e);
  net::Message m;
  m.type = net::MessageType::kSnapshotChunk;
  m.tenant_id = 3;
  m.chunk_seq = 41;
  m.payload_bytes = 256 * kKiB;
  for (uint64_t i = 0; i < 256; ++i) {
    m.rows.push_back(storage::Record{rng.Next(), i + 1, rng.Next()});
  }
  m.frame.codec = codec::Codec::kLz;
  m.frame.logical_bytes = 256 * kKiB;
  m.frame.encoded_bytes = 131000;
  m.negotiation.software_version = 3;
  m.negotiation.feature_mask = 3;
  m.range_lo = 1000;
  m.range_hi = 2000;
  const std::vector<uint8_t> frame = net::EncodeMessage(m);
  net::Message out;
  uint64_t decoded = 0;
  const double per_call = AllocationsPerCall([&](int) {
    if (net::DecodeMessage(frame, &out).ok()) ++decoded;
  });
  EXPECT_EQ(decoded, static_cast<uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(out.rows, m.rows);
  EXPECT_EQ(out.frame, m.frame);
  EXPECT_EQ(out.negotiation, m.negotiation);
  EXPECT_EQ(out.range_lo, 1000u);
  EXPECT_EQ(per_call, 0.0);
}

}  // namespace
}  // namespace slacker::engine
