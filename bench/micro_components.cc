// Microbenchmarks (google-benchmark) for the hot components under the
// experiments: B+-tree ops (cold lookups and snapshot-chunk apply
// among them), row digests, tenant loads and checkpoints, buffer pool
// touches, PID updates, wire codec and its CRCs, binlog append/scan,
// event queue churn, token bucket grants, and the bulk stream's three
// codec kernels. These bound the simulator's own overhead and document the
// costs of the core data structures.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "src/codec/frame.h"
#include "src/codec/lz.h"
#include "src/codec/payload.h"
#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/control/pid.h"
#include "src/engine/checkpoint.h"
#include "src/engine/tenant_db.h"
#include "src/net/message.h"
#include "src/obs/trace.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/resource/token_bucket.h"
#include "src/sim/simulator.h"
#include "src/storage/btree.h"
#include "src/storage/buffer_pool.h"
#include "src/wal/binlog.h"

namespace slacker {
namespace {

void BM_BTreeInsertSequential(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    storage::BTree tree;
    state.ResumeTiming();
    for (int64_t k = 0; k < state.range(0); ++k) {
      tree.Put(storage::Record{static_cast<uint64_t>(k), 1, 0});
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsertSequential)->Arg(10000)->Arg(100000);

void BM_BTreeLookupUniform(benchmark::State& state) {
  storage::BTree tree;
  const uint64_t n = state.range(0);
  for (uint64_t k = 0; k < n; ++k) tree.Put(storage::Record{k, 1, 0});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(rng.NextBelow(n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookupUniform)->Arg(100000)->Arg(1000000);

// Point lookups on a bulk-loaded tree far larger than L2, as a tenant's
// table is after TenantDb::Load: AppendSorted leaves every leaf half
// full in a half-size block, so 1 Mi rows take about 27 MiB and a
// random lookup's leaf is cold. Its internal nodes (about 1 MiB) stay
// in L2, unlike those of a fleet's hundreds of trees.
void BM_BTreeGetCold(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  std::vector<storage::Record> rows;
  rows.reserve(n);
  for (uint64_t k = 0; k < n; ++k) rows.push_back(storage::Record{k, 0, k});
  storage::BTree tree;
  tree.AppendSorted(rows.data(), rows.size());
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(rng.NextBelow(n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeGetCold)->Arg(1 << 20);

void BM_BTreeScan(benchmark::State& state) {
  storage::BTree tree;
  for (uint64_t k = 0; k < 100000; ++k) tree.Put(storage::Record{k, 1, 0});
  for (auto _ : state) {
    uint64_t sum = 0;
    for (auto it = tree.Begin(); it.Valid(); it.Next()) sum += it.record().key;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_BTreeScan);

// A tenant load's two layers: the row digest (common's HashCombine,
// three per row) and the whole load, which digests rows in stack
// batches and bulk-appends them at the tree's right edge.
void BM_RowDigest(benchmark::State& state) {
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::RowDigest(key++, 0, storage::kValueSeed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowDigest);

void BM_TenantLoad(benchmark::State& state) {
  sim::Simulator sim;
  resource::DiskModel disk(&sim, resource::DiskOptions{});
  resource::CpuModel cpu(&sim, resource::CpuOptions{});
  engine::TenantConfig config;
  config.tenant_id = 1;
  config.layout.record_count = static_cast<uint64_t>(state.range(0));
  engine::TenantDb db(&sim, &disk, &cpu, config);
  for (auto _ : state) {
    db.Load();
    benchmark::DoNotOptimize(db.table().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TenantLoad)->Arg(8 << 10)->Arg(16 << 10);

// A checkpoint's two sides on a 16 Ki-row tenant, fleet_reads' size:
// TakeCheckpoint packs and digests every row in one table walk, and
// RecoverFromCheckpoint appends the packed image back a block at a
// time, checking its digest in the same pass. One row in eight carries
// a later LSN, as after updates, so not every row packs into two bytes.
struct CheckpointRig {
  sim::Simulator sim;
  resource::DiskModel disk{&sim, resource::DiskOptions{}};
  resource::CpuModel cpu{&sim, resource::CpuOptions{}};
  engine::TenantDb db{&sim, &disk, &cpu, Config()};

  CheckpointRig() {
    db.Load();
    for (uint64_t key = 0; key < kRows; key += 8) {
      const storage::Lsn lsn = 1000 + key;
      db.mutable_table()->Put(storage::Record{
          key, lsn, storage::RowDigest(key, lsn, storage::kValueSeed)});
    }
  }

  static constexpr uint64_t kRows = 16 << 10;

  static engine::TenantConfig Config() {
    engine::TenantConfig config;
    config.tenant_id = 1;
    config.layout.record_count = kRows;
    return config;
  }
};

void BM_TakeCheckpoint(benchmark::State& state) {
  CheckpointRig rig;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::TakeCheckpoint(rig.db).digest);
  }
  state.SetItemsProcessed(state.iterations() * CheckpointRig::kRows);
}
BENCHMARK(BM_TakeCheckpoint);

void BM_RecoverFromCheckpoint(benchmark::State& state) {
  CheckpointRig rig;
  const engine::CheckpointImage image = engine::TakeCheckpoint(rig.db);
  engine::TenantDb recovered(&rig.sim, &rig.disk, &rig.cpu,
                             CheckpointRig::Config());
  for (auto _ : state) {
    const Result<storage::Lsn> lsn =
        engine::RecoverFromCheckpoint(image, *rig.db.binlog(), &recovered);
    if (!lsn.ok()) state.SkipWithError("recovery failed");
    benchmark::DoNotOptimize(recovered.table().size());
  }
  state.SetItemsProcessed(state.iterations() * CheckpointRig::kRows);
}
BENCHMARK(BM_RecoverFromCheckpoint);

void BM_BufferPoolTouch(benchmark::State& state) {
  storage::BufferPool pool(storage::BufferPoolOptions{8192});
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Touch(rng.NextBelow(65536), false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolTouch);

void BM_PidUpdate(benchmark::State& state) {
  control::PidConfig config;
  config.setpoint = 1000.0;
  control::PidController pid(config, control::PidForm::kVelocity);
  double pv = 100.0;
  for (auto _ : state) {
    pv = 100.0 + 0.1 * pid.Update(pv, 1.0);
    benchmark::DoNotOptimize(pv);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PidUpdate);

void BM_MessageRoundTrip(benchmark::State& state) {
  net::Message msg;
  msg.type = net::MessageType::kSnapshotChunk;
  msg.tenant_id = 1;
  msg.payload_bytes = 256 * 1024;
  for (uint64_t i = 0; i < static_cast<uint64_t>(state.range(0)); ++i) {
    msg.rows.push_back(storage::Record{i, i, i * 31});
  }
  for (auto _ : state) {
    const auto frame = net::EncodeMessage(msg);
    net::Message out;
    benchmark::DoNotOptimize(net::DecodeMessage(frame, &out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MessageRoundTrip)->Arg(256);

// CRC-32C over a 64 B message-sized buffer and a 6 KiB one, a 256-row
// chunk's packed rows (Crc32c's own dispatch: the crc32 instruction
// where the CPU has it).
void BM_Crc32c(benchmark::State& state) {
  Rng rng(3);
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  for (uint8_t& byte : data) byte = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(6144);

// The snapshot stream's per-chunk integrity CRC over 256 rows.
void BM_ChunkCrc(benchmark::State& state) {
  std::vector<storage::Record> rows;
  for (uint64_t i = 0; i < 256; ++i) {
    rows.push_back(storage::Record{i, i, i * 31});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::ChunkCrc(rows));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ChunkCrc);

void BM_BinlogAppendScan(benchmark::State& state) {
  for (auto _ : state) {
    wal::Binlog log(1024);
    for (storage::Lsn lsn = 1; lsn <= 10000; ++lsn) {
      log.AppendUpdate(lsn, lsn % 97);
    }
    benchmark::DoNotOptimize(log.total_bytes());
    std::vector<wal::LogRecord> out;
    log.ReadRange(5000, 10000, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_BinlogAppendScan);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.After(static_cast<double>(i % 100), [&fired] { ++fired; });
    }
    sim.RunAll();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueChurn);

// The observability overhead guard: instrumentation is compiled in
// unconditionally, so the disabled path (a null tracer — every call
// site's default) must cost next to nothing compared to the enabled
// path, which copies the track/name strings and records a span.
void BM_TraceSpanDisabled(benchmark::State& state) {
  obs::Tracer* tracer = nullptr;
  for (auto _ : state) {
    obs::TraceSpan span(tracer, "tenant 1 migration", "delta round", "delta");
    span.AddArg("bytes", 4096.0);
    span.AddNote("status", "OK");
    benchmark::DoNotOptimize(span.active());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  obs::Tracer tracer([] { return 1.0; });
  size_t recorded = 0;
  for (auto _ : state) {
    {
      obs::TraceSpan span(&tracer, "tenant 1 migration", "delta round",
                          "delta");
      span.AddArg("bytes", 4096.0);
      span.AddNote("status", "OK");
    }
    // Keep the buffer bounded so the benchmark measures recording, not
    // vector growth over millions of iterations.
    if (tracer.spans().size() >= 4096) {
      recorded += tracer.spans().size();
      tracer.Clear();
    }
  }
  benchmark::DoNotOptimize(recorded);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_MetricCounterIncrement(benchmark::State& state) {
  obs::MetricRegistry registry;
  obs::Counter* counter =
      registry.FindOrCreateCounter("migration_delta_bytes", "tenant=1");
  for (auto _ : state) {
    counter->Add(4096);
    benchmark::DoNotOptimize(counter);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricCounterIncrement);

void BM_TokenBucketGrants(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    resource::TokenBucketOptions options;
    options.rate_bytes_per_sec = 1e7;
    options.burst_bytes = 1 << 20;
    resource::TokenBucket bucket(&sim, options);
    int grants = 0;
    std::function<void()> loop = [&] {
      if (++grants < 1000) bucket.Acquire(1 << 18, loop);
    };
    bucket.Acquire(1 << 18, loop);
    sim.RunAll();
    benchmark::DoNotOptimize(grants);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TokenBucketGrants);

// The bulk stream's kernels on the fig15 chunk shape (256 rows of
// 1 KiB at redundancy 0.5), each in payload bytes per second: the LZ
// size pass, the payload writer, and the closed-form payload CRC. The
// LZ size pass also runs on the same rows at redundancy 0, its worst
// case: pure noise, so every position probes the table.
constexpr uint64_t kChunkRows = 256;
constexpr uint64_t kRowBytes = 1024;
constexpr double kRedundancy = 0.5;

std::vector<storage::Record> ChunkRows() {
  Rng rng(0xb1c);
  std::vector<storage::Record> rows;
  for (uint64_t i = 0; i < kChunkRows; ++i) {
    rows.push_back(storage::Record{i, 1, rng.Next()});
  }
  return rows;
}

// A migration target applying a run of consecutive key-ordered
// snapshot chunks (256 KiB of 1 KiB rows each) into one staging table,
// newest LSN wins, in rows per second. Each chunk lands at the right
// edge of the last, as in a migration, so the root leaf's one-time move
// into a full block is paid once per run rather than once per chunk.
constexpr uint64_t kChunksPerRun = 64;

void BM_ApplySnapshotChunk(benchmark::State& state) {
  Rng rng(0xb1c);
  std::vector<std::vector<storage::Record>> chunks(kChunksPerRun);
  for (uint64_t c = 0; c < kChunksPerRun; ++c) {
    for (uint64_t i = 0; i < kChunkRows; ++i) {
      chunks[c].push_back(storage::Record{c * kChunkRows + i, 1, rng.Next()});
    }
  }
  for (auto _ : state) {
    storage::BTree table;
    for (const std::vector<storage::Record>& rows : chunks) {
      table.PutNewest(rows.data(), rows.size());
    }
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kChunksPerRun * kChunkRows));
}
BENCHMARK(BM_ApplySnapshotChunk);

void LzCompressedSizeAt(benchmark::State& state, double redundancy) {
  const std::vector<uint8_t> payload =
      codec::MaterializeChunkPayload(ChunkRows(), kRowBytes, redundancy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::LzCompressedSize(payload.data(), payload.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}

void BM_LzCompressedSize(benchmark::State& state) {
  LzCompressedSizeAt(state, kRedundancy);
}
BENCHMARK(BM_LzCompressedSize);

void BM_LzCompressedSizeNoise(benchmark::State& state) {
  LzCompressedSizeAt(state, 0.0);
}
BENCHMARK(BM_LzCompressedSizeNoise);

void BM_MaterializeChunkPayload(benchmark::State& state) {
  const std::vector<storage::Record> rows = ChunkRows();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::MaterializeChunkPayload(rows, kRowBytes, kRedundancy));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kChunkRows * kRowBytes));
}
BENCHMARK(BM_MaterializeChunkPayload);

void BM_ChunkPayloadCrc(benchmark::State& state) {
  const std::vector<storage::Record> rows = ChunkRows();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::ChunkPayloadCrc(rows, kRowBytes, kRedundancy));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kChunkRows * kRowBytes));
}
BENCHMARK(BM_ChunkPayloadCrc);

}  // namespace
}  // namespace slacker

BENCHMARK_MAIN();
