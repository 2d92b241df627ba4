#ifndef SLACKER_WORKLOAD_CLIENT_POOL_H_
#define SLACKER_WORKLOAD_CLIENT_POOL_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/ring_deque.h"
#include "src/common/stats.h"
#include "src/common/time_series.h"
#include "src/common/units.h"
#include "src/engine/transaction.h"
#include "src/sim/simulator.h"
#include "src/workload/ycsb.h"

namespace slacker::workload {

/// Maps a tenant id to its currently authoritative database instance —
/// the client-side view of the frontend directory (§2.2). Implemented
/// by the Slacker cluster.
class TenantResolver {
 public:
  virtual ~TenantResolver() = default;
  virtual engine::TenantDb* Resolve(uint64_t tenant_id) = 0;
  /// Per-key routing for range-sharded tenants (DESIGN.md §16). The
  /// default ignores the key — for an unsharded tenant every key lives
  /// with the tenant's one authoritative instance.
  virtual engine::TenantDb* ResolveForKey(uint64_t tenant_id,
                                          uint64_t /*key*/) {
    return Resolve(tenant_id);
  }
};

/// The newest acknowledged write of one key.
struct AckedWrite {
  storage::Lsn lsn = 0;
  uint64_t digest = 0;
  /// Always false: no write removes a row (a tenant's keys are fixed at
  /// load). Kept only because the benchmark's audit still reads it.
  bool deleted = false;
};

/// Most recent acknowledged write per key — key -> (lsn, digest) — for
/// durability checks after migration. An open-addressing table (linear
/// probing, power-of-two size, at most half full) rather than a vector
/// indexed by key: a tenant writes only a fraction of its key space
/// (DESIGN.md §15.5).
/// Iterates as (key, AckedWrite) pairs in table order.
class AckedWriteLedger {
 public:
  using Entry = std::pair<uint64_t, AckedWrite>;

  class Iterator {
   public:
    const Entry& operator*() const { return *slot_; }
    Iterator& operator++() {
      ++slot_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return slot_ == other.slot_;
    }

   private:
    friend class AckedWriteLedger;
    Iterator(const Entry* slot, const Entry* end) : slot_(slot), end_(end) {
      SkipEmpty();
    }
    // Every acknowledged write has an LSN >= 1, so lsn 0 marks a free
    // slot.
    void SkipEmpty() {
      while (slot_ != end_ && slot_->second.lsn == 0) ++slot_;
    }
    const Entry* slot_;
    const Entry* end_;
  };

  /// Keeps `write` for `key` unless the ledger holds one with a higher
  /// LSN. `write.lsn` must be nonzero.
  void Record(uint64_t key, const AckedWrite& write);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Iterator begin() const {
    return Iterator(slots_.data(), slots_.data() + slots_.size());
  }
  Iterator end() const {
    const Entry* last = slots_.data() + slots_.size();
    return Iterator(last, last);
  }

 private:
  void Grow();

  std::vector<Entry> slots_;
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size()).
};

struct ClientPoolStats {
  uint64_t arrivals = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t max_queue_depth = 0;
};

/// The benchmark client for one tenant: an open-loop Poisson arrival
/// process feeding an MPL-bounded pool of client threads with a FIFO
/// overflow queue, per §5.1.2 — "the latency of a transaction is the
/// sum of the time spent in queue and the transaction execution time".
/// Transactions that land on a tenant mid-handover fail with
/// kUnavailable and are retried transparently against the new replica,
/// with the original arrival time preserved (the retry cost shows up as
/// latency, exactly as a real redirected client would experience).
class ClientPool {
 public:
  /// Client threads: "we fix the workload multiprogramming level (MPL)
  /// at 10 and queue requests that arrive but cannot be immediately
  /// serviced".
  static constexpr int kMpl = 10;

  /// Observer invoked on every completed transaction (the server-side
  /// latency monitor feed).
  using LatencyObserver =
      std::function<void(uint64_t tenant_id, SimTime now, double latency_ms)>;

  /// `workload` and `resolver` must outlive the pool.
  ClientPool(sim::Simulator* sim, YcsbWorkload* workload,
             TenantResolver* resolver, LatencyObserver observer = nullptr);

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Begins generating arrivals.
  void Start();
  /// Stops generating new arrivals; queued and in-flight transactions
  /// still complete.
  void Stop();
  bool running() const { return running_; }

  /// Route each transaction by its first operation's key through
  /// TenantResolver::ResolveForKey instead of the whole-tenant lookup
  /// (DESIGN.md §16). Requires single-op transactions (checked in
  /// Start), which route exactly. Off by default — identical to Resolve
  /// for unsharded tenants.
  void set_route_by_key(bool route) { route_by_key_ = route; }

  /// Age (ms) of the oldest transaction not yet completed, or 0.
  double OldestOutstandingAgeMs(SimTime now) const;

  /// Per-transaction latency samples (ms) across the whole run, read
  /// off latency_series() so each sample is stored once.
  PercentileTracker latencies() const;
  /// (completion time, latency ms) series for figure plotting.
  const common::TimeSeries& latency_series() const { return latency_series_; }
  const ClientPoolStats& stats() const { return stats_; }
  int busy_clients() const { return busy_clients_; }
  size_t queue_depth() const { return queue_.size(); }

  /// Most recent acknowledged write per key.
  const AckedWriteLedger& acked_writes() const { return acked_writes_; }

 private:
  struct PendingTxn {
    engine::TxnSpec spec;
    SimTime arrival = 0.0;
    int attempts = 0;
    /// Arrival sequence number: the transaction's slot in outstanding_,
    /// kept across retries.
    uint64_t seq = 0;
  };

  /// One arrival in outstanding_; `done` once its transaction retired.
  struct Outstanding {
    SimTime arrival = 0.0;
    bool done = false;
  };

  void ScheduleNextArrival();
  void OnArrival();
  void Dispatch(PendingTxn txn);
  void OnTxnDone(PendingTxn txn, const engine::TxnResult& result);

  /// With the exponential resolve backoff (10 ms doubling, capped at
  /// 1 s) this rides out ~10 s of a tenant having no authoritative
  /// instance — a crashed host restarting, or a handover window.
  static constexpr int kMaxAttempts = 16;

  sim::Simulator* sim_;
  YcsbWorkload* workload_;
  TenantResolver* resolver_;
  LatencyObserver observer_;

  bool running_ = false;
  bool route_by_key_ = false;
  sim::EventId arrival_event_ = 0;
  int busy_clients_ = 0;
  RingDeque<PendingTxn> queue_;
  /// Every arrival not yet popped, in arrival (hence simulated-time)
  /// order: outstanding_[i] holds sequence number outstanding_base_ + i.
  /// Retired slots are popped once they reach the front, so the front
  /// is the oldest outstanding arrival.
  RingDeque<Outstanding> outstanding_;
  uint64_t outstanding_base_ = 0;
  /// Specs of retired transactions (at most kMpl), refilled in place
  /// by the next arrivals so their ops vectors keep their capacity.
  std::vector<engine::TxnSpec> spare_specs_;
  /// Frames of the transactions in flight; they stop growing at the
  /// peak in-flight count plus one (kMpl + 1 unless backed-off retries
  /// overshoot the MPL).
  engine::TxnFrames frames_;

  common::TimeSeries latency_series_;
  ClientPoolStats stats_;
  AckedWriteLedger acked_writes_;
};

}  // namespace slacker::workload

#endif  // SLACKER_WORKLOAD_CLIENT_POOL_H_
