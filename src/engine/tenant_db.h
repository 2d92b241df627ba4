#ifndef SLACKER_ENGINE_TENANT_DB_H_
#define SLACKER_ENGINE_TENANT_DB_H_

#include <cstdint>
#include <utility>

#include "src/common/metric_types.h"
#include "src/common/ring_deque.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/engine/tenant_config.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/sim/callback.h"
#include "src/sim/lifetime.h"
#include "src/sim/simulator.h"
#include "src/storage/btree.h"
#include "src/storage/buffer_pool.h"
#include "src/wal/binlog.h"

namespace slacker::engine {

/// A single query operation (one step of a YCSB transaction).
enum class OpType { kRead, kUpdate, kInsert, kDelete, kScan };

struct Operation {
  OpType type = OpType::kRead;
  uint64_t key = 0;
  /// kScan: number of consecutive rows to read starting at `key`
  /// (YCSB workload E's SCAN operation).
  uint64_t scan_length = 0;
};

/// Row image returned for write operations so clients can verify
/// end-to-end durability across a migration.
struct WrittenRow {
  uint64_t key = 0;
  storage::Lsn lsn = 0;
  uint64_t digest = 0;  // 0 for deletes.
  bool deleted = false;
};

/// One tenant's database instance: the mysqld-per-tenant analog from
/// §2.2. Owns the clustered table (B+-tree), an LRU buffer pool, and
/// the binlog. Writes execute *functionally* inline (real upserts and
/// deletes against the tree, logged to the binlog) while every
/// operation's *time* is charged to the server's shared disk and CPU via
/// the simulator — so both data correctness and latency behaviour are
/// first-class. Reads and scans are charged in full (CPU, buffer-pool
/// touch, disk read on a miss) but return no row, since no caller
/// receives one, so they never walk the tree.
class TenantDb {
 public:
  using OpCallback = sim::Callback<void(Status, const WrittenRow&)>;

  /// Process-level multitenancy (§2.1, the paper's model): this
  /// instance owns a dedicated buffer pool sized by
  /// config.buffer_pool_bytes.
  TenantDb(sim::Simulator* sim, resource::DiskModel* disk,
           resource::CpuModel* cpu, TenantConfig config);

  /// Shared-process multitenancy (§6/§8 extension — "one MySQL daemon
  /// handling all tenants"): page accesses go through `shared_pool`,
  /// which other tenants on the server also use. Page ids are
  /// namespaced by tenant, but *capacity* is contended — a hot
  /// neighbour evicts this tenant's pages, the interference the paper's
  /// process-level choice avoids. `shared_pool` must outlive this.
  TenantDb(sim::Simulator* sim, resource::DiskModel* disk,
           resource::CpuModel* cpu, TenantConfig config,
           storage::BufferPool* shared_pool);

  TenantDb(const TenantDb&) = delete;
  TenantDb& operator=(const TenantDb&) = delete;

  /// Pre-populates layout.record_count rows (LSN 0) and marks the
  /// buffer pool cold. Instantaneous in simulated time (the paper
  /// pre-populates before measuring, too).
  void Load();

  /// Fills the buffer pool to capacity with (clean) resident pages —
  /// the steady state a long-running tenant reaches, so experiments
  /// measure equilibrium hit rates instead of a cold-start transient.
  void WarmBufferPool();

  /// Executes one operation; `done` fires when its CPU and I/O are
  /// complete. An operation touching a frozen key queues and waits
  /// (read-lock semantics).
  void ExecuteOp(const Operation& op, OpCallback done);

  /// Appends the transaction commit record and charges the group-commit
  /// latency; `done` fires when the commit is durable.
  void Commit(uint64_t txn_id, sim::Callback<void()> done);

  /// Stops admitting operations that touch keys in [lo, hi); others
  /// keep executing. The default interval is the whole key space: the
  /// tenant-wide read lock of handover and stop-and-copy (§2.3). A
  /// fluid-migration handover freezes just its range (DESIGN.md §16).
  /// `drained` fires once every operation that was in flight and
  /// overlapped the interval at freeze time completes. One freeze at a
  /// time; bounds are raw integers so the engine stays below the range
  /// module in the layer DAG.
  void Freeze(sim::Callback<void()> drained, uint64_t lo = 0,
              uint64_t hi = UINT64_MAX);
  /// Lifts the freeze and admits the queued operations, in order.
  void Unfreeze();
  /// Fails every operation queued behind the freeze with kUnavailable —
  /// used after handover when this replica stops being authoritative
  /// for the frozen keys (clients re-resolve and retry at the target).
  /// The freeze stays in place.
  void FailQueued();
  bool frozen() const { return frozen_; }
  /// Crash semantics: fails every *in-flight* operation (those already
  /// inside the CPU/disk pipeline), oldest first, then everything queued
  /// behind a freeze, with `status`. Late resource completions for those
  /// ops become no-ops. Call before destroying the instance on a
  /// simulated server crash so client callbacks fire instead of leaking.
  void FailInFlight(const Status& status);

  /// Direct (non-simulated) access for backup/replication machinery.
  const storage::BTree& table() const { return table_; }
  storage::BTree* mutable_table() { return &table_; }
  wal::Binlog* binlog() { return &binlog_; }
  const wal::Binlog& binlog() const { return binlog_; }
  /// The pool page accesses go through (dedicated or shared).
  storage::BufferPool* buffer_pool() { return pool_; }
  bool uses_shared_pool() const { return pool_ != &own_pool_; }

  /// Charges a bulk sequential read of `bytes` against this tenant's
  /// disk as stream `stream_id` (used by the hot-backup streamer).
  /// `done` (a lambda or nullptr) is dropped if this instance dies
  /// first; the resource time was still spent, as on real hardware.
  template <typename F>
  void ChargeSequentialRead(uint64_t bytes, uint64_t stream_id, F done) {
    disk_->Submit(resource::IoKind::kSequentialRead, bytes,
                  lifetime_.Guard(std::move(done)), stream_id);
  }
  template <typename F>
  void ChargeSequentialWrite(uint64_t bytes, uint64_t stream_id, F done) {
    disk_->Submit(resource::IoKind::kSequentialWrite, bytes,
                  lifetime_.Guard(std::move(done)), stream_id);
  }
  /// Charges CPU work (backup prepare / delta apply).
  template <typename F>
  void ChargeCpu(SimTime service, F done) {
    cpu_->Submit(service, lifetime_.Guard(std::move(done)));
  }

  const TenantConfig& config() const { return config_; }
  storage::Lsn last_lsn() const { return binlog_.last_lsn(); }

  /// Installs the durable binlog a restarted server salvaged from disk,
  /// and fast-forwards the LSN/insert cursors past it. The table must
  /// already reflect the recovered state (checkpoint load + replay).
  void RestoreBinlog(wal::Binlog log);

  /// Fast-forwards the LSN and insert-key cursors after this instance
  /// ingests migrated state, so post-handover writes continue the
  /// source's sequences instead of colliding with them.
  void SyncCursorsAfterIngest(storage::Lsn source_last_lsn);

  /// Order-sensitive digest over (key, lsn, digest) of every row with
  /// key in [lo, hi); equal digests mean byte-identical logical tables
  /// (or ranges — what source and target compare at a range handover).
  uint64_t StateDigest(uint64_t lo = 0, uint64_t hi = UINT64_MAX) const;

  /// Logical bytes of table data (what a migration must copy).
  uint64_t DataBytes() const;

  /// Drops every row with key in [lo, hi) without logging (the range
  /// handed over; those rows now live on the new owner). Returns the
  /// number of rows dropped.
  uint64_t EraseRangeRows(uint64_t lo, uint64_t hi);

  uint64_t ops_executed() const { return ops_executed_; }
  size_t queued_ops() const { return queue_.size(); }
  int in_flight() const { return in_flight_; }

  /// Hooks engine-level metrics into an observability registry: every
  /// completed operation observes its start-to-finish latency (ms) and
  /// bumps the op counter. Pass nullptrs to detach. Off (no per-op
  /// bookkeeping at all) unless attached.
  void AttachObs(common::Histogram* op_latency_ms, common::Counter* ops);

 private:
  struct PendingOp {
    Operation op;
    OpCallback done;
  };

  /// One slot of the in-flight window, indexed by op token.
  struct InFlightOp {
    Operation op;
    OpCallback done;
    SimTime start = -1.0;  // Negative: not timed (no latency histogram).
    bool live = false;     // False once finished or failed.
    bool drains = false;   // Overlapped the freeze when it began.
  };

  void StartOp(const Operation& op, OpCallback done);
  void StartScan(const Operation& op, uint64_t token);
  void ScanNextPage(uint64_t page, uint64_t last_page, uint64_t token);
  /// The in-flight op behind `token`; null once FailInFlight claimed it.
  const Operation* InFlight(uint64_t token) const;
  void FinishOp(uint64_t token);
  /// Opens an in-flight window slot for `op`; FinishOp/FailInFlight
  /// claim it exactly once by the returned token.
  uint64_t RegisterOp(const Operation& op, OpCallback done);
  WrittenRow ApplyWrite(const Operation& op);
  void MaybeNotifyDrained();
  /// Fails every queued op with `status`, in order.
  void FailQueue(const Status& status);
  /// Schedules `done(status)` on the event loop (no-op for null).
  void FailLater(OpCallback done, const Status& status);
  /// Whether `op` reads or writes a key inside the frozen interval (an
  /// insert touches it iff the next insert key would land there).
  bool TouchesFrozenKeys(const Operation& op) const;
  /// Pool-namespace id for this tenant's `page` (distinct across
  /// tenants sharing one pool).
  uint64_t PoolPageId(uint64_t page) const;

  sim::Simulator* sim_;
  resource::DiskModel* disk_;
  resource::CpuModel* cpu_;
  TenantConfig config_;

  storage::BTree table_;
  storage::BufferPool own_pool_;
  storage::BufferPool* pool_;  // == &own_pool_ unless shared.
  wal::Binlog binlog_;
  storage::Lsn next_lsn_ = 1;
  uint64_t next_insert_key_;

  bool frozen_ = false;
  uint64_t frozen_lo_ = 0;
  uint64_t frozen_hi_ = 0;
  RingDeque<PendingOp> queue_;
  sim::Callback<void()> drain_waiter_;
  /// Live window slots whose `drains` bit is set.
  int draining_ = 0;

  /// In-flight ops by token: window_[i] holds token window_base_ + i.
  /// Finished slots at the front are popped, so the window spans the
  /// oldest in-flight op to the newest.
  RingDeque<InFlightOp> window_;
  uint64_t window_base_ = 1;
  int in_flight_ = 0;
  uint64_t ops_executed_ = 0;

  /// Observability (inert unless AttachObs was called).
  common::Histogram* op_latency_hist_ = nullptr;
  common::Counter* ops_counter_ = nullptr;
  /// Guards continuations routed through the shared disk/CPU, so a
  /// crash can destroy the db while its I/O is still queued.
  sim::Lifetime lifetime_;
};

}  // namespace slacker::engine

#endif  // SLACKER_ENGINE_TENANT_DB_H_
