#include "src/engine/tenant_db.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/invariant.h"
#include "src/storage/record.h"

namespace slacker::engine {

TenantDb::TenantDb(sim::Simulator* sim, resource::DiskModel* disk,
                   resource::CpuModel* cpu, TenantConfig config)
    : sim_(sim),
      disk_(disk),
      cpu_(cpu),
      config_(config),
      own_pool_(storage::BufferPoolOptions{config.BufferPoolPages()}),
      pool_(&own_pool_),
      binlog_(config.layout.record_bytes),
      next_insert_key_(config.layout.record_count) {}

TenantDb::TenantDb(sim::Simulator* sim, resource::DiskModel* disk,
                   resource::CpuModel* cpu, TenantConfig config,
                   storage::BufferPool* shared_pool)
    : sim_(sim),
      disk_(disk),
      cpu_(cpu),
      config_(config),
      own_pool_(storage::BufferPoolOptions{0}),
      pool_(shared_pool),
      binlog_(config.layout.record_bytes),
      next_insert_key_(config.layout.record_count) {}

uint64_t TenantDb::PoolPageId(uint64_t page) const {
  // Namespacing only matters when the pool is shared; harmless always.
  return (config_.tenant_id << 40) | page;
}

void TenantDb::Load() {
  table_.Clear();
  if (!uses_shared_pool()) pool_->Clear();
  // Keys 0..N-1 arrive in order, so they go in through the tree's bulk
  // append, one stack batch at a time.
  constexpr uint64_t kBatch = 64;
  storage::Record batch[kBatch];
  const uint64_t count = config_.layout.record_count;
  for (uint64_t first = 0; first < count; first += kBatch) {
    const uint64_t len = std::min(kBatch, count - first);
    for (uint64_t i = 0; i < len; ++i) {
      const uint64_t key = first + i;
      batch[i] = storage::Record{
          key, 0, storage::RowDigest(key, 0, storage::kValueSeed)};
    }
    table_.AppendSorted(batch, len);
  }
}

void TenantDb::ExecuteOp(const Operation& op, OpCallback done) {
  if (frozen_ && TouchesFrozenKeys(op)) {
    queue_.push_back(PendingOp{op, std::move(done)});
    return;
  }
  StartOp(op, std::move(done));
}

bool TenantDb::TouchesFrozenKeys(const Operation& op) const {
  if (op.type == OpType::kInsert) {
    // Inserts land at the next insert cursor, not op.key.
    return next_insert_key_ >= frozen_lo_ && next_insert_key_ < frozen_hi_;
  }
  if (op.type == OpType::kScan) {
    const uint64_t len = std::max<uint64_t>(op.scan_length, 1);
    const uint64_t end =
        len > UINT64_MAX - op.key ? UINT64_MAX : op.key + len;
    return op.key < frozen_hi_ && end > frozen_lo_;
  }
  return op.key >= frozen_lo_ && op.key < frozen_hi_;
}

uint64_t TenantDb::RegisterOp(const Operation& op, OpCallback done) {
  ++in_flight_;
  const uint64_t token = window_base_ + window_.size();
  window_.push_back(InFlightOp{
      op, std::move(done), op_latency_hist_ != nullptr ? sim_->Now() : -1.0,
      /*live=*/true, /*drains=*/false});
  return token;
}

void TenantDb::AttachObs(common::Histogram* op_latency_ms,
                         common::Counter* ops) {
  op_latency_hist_ = op_latency_ms;
  ops_counter_ = ops;
  if (op_latency_hist_ != nullptr) return;
  // Ops started while detached stay untimed even if a histogram is
  // attached again before they finish.
  for (size_t i = 0; i < window_.size(); ++i) window_[i].start = -1.0;
}

void TenantDb::StartOp(const Operation& op, OpCallback done) {
  const uint64_t token = RegisterOp(op, std::move(done));
  if (op.type == OpType::kScan) {
    StartScan(op, token);
    return;
  }
  // Stage 1: CPU (parse/plan/execute). Continuations are guarded by
  // lifetime_: a server crash destroys the instance while its work is
  // still queued on the shared disk/CPU.
  cpu_->Submit(config_.cpu_per_op, lifetime_.Guard([this, token] {
    const Operation* op = InFlight(token);
    if (op == nullptr) return;
    // Stage 2: page access through the buffer pool.
    const bool is_write = op->type != OpType::kRead;
    const uint64_t page = PoolPageId(config_.layout.PageOf(op->key));
    const storage::PageAccess access = pool_->Touch(page, is_write);
    if (access.evicted_dirty) {
      // Background write-back of the victim page; nobody waits on it,
      // but it does occupy the shared disk.
      disk_->Submit(resource::IoKind::kRandomWrite, config_.layout.page_bytes,
                    nullptr, config_.tenant_id);
    }
    if (access.hit) {
      FinishOp(token);
      return;
    }
    // Stage 3: synchronous page read on miss.
    disk_->Submit(resource::IoKind::kRandomRead, config_.layout.page_bytes,
                  lifetime_.Guard([this, token] { FinishOp(token); }),
                  config_.tenant_id);
  }));
}

const Operation* TenantDb::InFlight(uint64_t token) const {
  return token < window_base_ ? nullptr : &window_[token - window_base_].op;
}

void TenantDb::StartScan(const Operation& op, uint64_t token) {
  const uint64_t length = std::max<uint64_t>(op.scan_length, 1);
  const uint64_t first_page = config_.layout.PageOf(op.key);
  const uint64_t last_key = op.key + length - 1;
  const uint64_t last_page =
      std::min(config_.layout.PageOf(last_key),
               config_.layout.TotalPages() == 0
                   ? first_page
                   : config_.layout.TotalPages() - 1);
  // One planning charge, then the pages stream in order; each page is
  // a buffer-pool touch and, on a miss, a sequential read (consecutive
  // pages of one scan keep the head position via the tenant stream id).
  cpu_->Submit(config_.cpu_per_op,
               lifetime_.Guard([this, first_page, last_page, token] {
                 ScanNextPage(first_page, last_page, token);
               }));
}

void TenantDb::ScanNextPage(uint64_t page, uint64_t last_page,
                            uint64_t token) {
  if (page > last_page) {
    FinishOp(token);
    return;
  }
  const storage::PageAccess access =
      pool_->Touch(PoolPageId(page), /*make_dirty=*/false);
  if (access.evicted_dirty) {
    disk_->Submit(resource::IoKind::kRandomWrite, config_.layout.page_bytes,
                  nullptr, config_.tenant_id);
  }
  if (access.hit) {
    ScanNextPage(page + 1, last_page, token);
    return;
  }
  disk_->Submit(resource::IoKind::kSequentialRead, config_.layout.page_bytes,
                lifetime_.Guard([this, page, last_page, token] {
                  ScanNextPage(page + 1, last_page, token);
                }),
                config_.tenant_id);
}

void TenantDb::FinishOp(uint64_t token) {
  // Tokens below the window were claimed by FailInFlight.
  if (token < window_base_) return;
  InFlightOp& slot = window_[token - window_base_];
  const Operation op = slot.op;
  OpCallback done = std::move(slot.done);
  slot.live = false;
  if (frozen_ && slot.drains) --draining_;
  if (op_latency_hist_ != nullptr && slot.start >= 0.0) {
    op_latency_hist_->Observe(MsFromSeconds(sim_->Now() - slot.start));
  }
  while (!window_.empty() && !window_.front().live) {
    window_.pop_front();
    ++window_base_;
  }
  if (ops_counter_ != nullptr) ops_counter_->Add();
  // Reads and scans return no row, so only writes touch the tree; an
  // absent key is a successful empty read either way.
  WrittenRow written;
  if (op.type != OpType::kRead && op.type != OpType::kScan) {
    written = ApplyWrite(op);
  }
  ++ops_executed_;
  --in_flight_;
  MaybeNotifyDrained();
  if (done) done(Status::Ok(), written);
}

WrittenRow TenantDb::ApplyWrite(const Operation& op) {
  WrittenRow written;
  const storage::Lsn lsn = next_lsn_++;
  written.lsn = lsn;
  wal::LogType type = wal::LogType::kUpdate;
  switch (op.type) {
    case OpType::kUpdate: {
      written.key = op.key;
      written.digest = storage::RowDigest(op.key, lsn, storage::kValueSeed);
      table_.Put(storage::Record{op.key, lsn, written.digest});
      break;
    }
    case OpType::kInsert: {
      const uint64_t key = next_insert_key_++;
      written.key = key;
      written.digest = storage::RowDigest(key, lsn, storage::kValueSeed);
      table_.Put(storage::Record{key, lsn, written.digest});
      type = wal::LogType::kInsert;
      break;
    }
    case OpType::kDelete: {
      written.key = op.key;
      written.deleted = true;
      table_.Erase(op.key);
      type = wal::LogType::kDelete;
      break;
    }
    case OpType::kRead:
    case OpType::kScan:  // Reads and scans never reach ApplyWrite.
      return written;
  }
  // Binlog append is functional bookkeeping here; durability cost is
  // charged once per transaction in Commit(). The binlog re-derives the
  // row image's digest and accounts it at full row size (row-based
  // replication).
  binlog_.AppendRow(lsn, type, written.key);
  return written;
}

void TenantDb::Commit(uint64_t txn_id, sim::Callback<void()> done) {
  binlog_.AppendCommit(next_lsn_++, txn_id);
  sim_->After(config_.commit_latency, std::move(done));
}

void TenantDb::Freeze(sim::Callback<void()> drained, uint64_t lo,
                      uint64_t hi) {
  SLACKER_CHECK(!frozen_, "freeze already active");
  frozen_ = true;
  frozen_lo_ = lo;
  frozen_hi_ = hi;
  // Decide once, here, which in-flight ops the drain waits for: the set
  // cannot drift as the insert cursor advances.
  draining_ = 0;
  for (size_t i = 0; i < window_.size(); ++i) {
    InFlightOp& slot = window_[i];
    slot.drains = slot.live && TouchesFrozenKeys(slot.op);
    if (slot.drains) ++draining_;
  }
  drain_waiter_ = std::move(drained);
  MaybeNotifyDrained();
}

void TenantDb::MaybeNotifyDrained() {
  if (!frozen_ || draining_ > 0 || !drain_waiter_) return;
  sim_->After(0.0, std::move(drain_waiter_));
}

void TenantDb::Unfreeze() {
  frozen_ = false;
  drain_waiter_.Reset();
  // Admit everything that queued behind the lock, in order.
  RingDeque<PendingOp> queued = std::move(queue_);
  for (size_t i = 0; i < queued.size(); ++i) {
    StartOp(queued[i].op, std::move(queued[i].done));
  }
}

void TenantDb::FailQueued() {
  FailQueue(Status::Unavailable("tenant migrated away"));
}

void TenantDb::FailInFlight(const Status& status) {
  RingDeque<InFlightOp> window = std::move(window_);
  window_base_ += window.size();
  in_flight_ = 0;
  draining_ = 0;
  for (size_t i = 0; i < window.size(); ++i) {
    if (window[i].live) FailLater(std::move(window[i].done), status);
  }
  FailQueue(status);
  MaybeNotifyDrained();
}

void TenantDb::FailQueue(const Status& status) {
  RingDeque<PendingOp> queued = std::move(queue_);
  for (size_t i = 0; i < queued.size(); ++i) {
    FailLater(std::move(queued[i].done), status);
  }
}

void TenantDb::FailLater(OpCallback done, const Status& status) {
  if (!done) return;
  // Defer: callers expect completion callbacks to arrive from the event
  // loop, never from inside the call that failed them.
  sim_->After(0.0, [done = std::move(done), status] {
    done(status, WrittenRow{});
  });
}

void TenantDb::RestoreBinlog(wal::Binlog log) {
  binlog_ = std::move(log);
  SyncCursorsAfterIngest(binlog_.last_lsn());
}

void TenantDb::WarmBufferPool() {
  const uint64_t total = config_.layout.TotalPages();
  const uint64_t frames = pool_->capacity();
  const uint64_t to_warm = std::min(total, frames);
  // Which pages are resident is immaterial under uniform access; what
  // matters is that the pool is full, giving hit rate ≈ frames/total.
  // (Under a shared pool, tenants warming in turn contend for frames —
  // exactly the steady state they will also contend for in service.)
  for (uint64_t page = 0; page < to_warm; ++page) {
    pool_->Touch(PoolPageId(page), /*make_dirty=*/false);
  }
  pool_->ResetStats();
}

void TenantDb::SyncCursorsAfterIngest(storage::Lsn source_last_lsn) {
  if (source_last_lsn + 1 > next_lsn_) next_lsn_ = source_last_lsn + 1;
  const Result<uint64_t> max_key = table_.MaxKey();
  if (max_key.ok() && *max_key + 1 > next_insert_key_) {
    next_insert_key_ = *max_key + 1;
  }
}

uint64_t TenantDb::StateDigest(uint64_t lo, uint64_t hi) const {
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (auto it = table_.Seek(lo); it.Valid() && it.record().key < hi;
       it.Next()) {
    const storage::Record& r = it.record();
    digest = HashCombine(digest, r.key);
    digest = HashCombine(digest, r.lsn);
    digest = HashCombine(digest, r.digest);
  }
  return digest;
}

uint64_t TenantDb::DataBytes() const {
  return config_.layout.PagesFor(table_.size()) * config_.layout.page_bytes;
}

uint64_t TenantDb::EraseRangeRows(uint64_t lo, uint64_t hi) {
  std::vector<uint64_t> keys;
  for (auto it = table_.Seek(lo); it.Valid() && it.record().key < hi;
       it.Next()) {
    keys.push_back(it.record().key);
  }
  for (const uint64_t key : keys) table_.Erase(key);
  return keys.size();
}

}  // namespace slacker::engine
