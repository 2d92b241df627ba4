#include "src/workload/client_pool.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/logging.h"

namespace slacker::workload {

void AckedWriteLedger::Record(uint64_t key, const AckedWrite& write) {
  SLACKER_DCHECK(write.lsn != 0);
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  // Fibonacci hashing spreads the dense YCSB keys over the top bits.
  size_t i = (key * 0x9E3779B97F4A7C15ull) >> shift_;
  for (;; i = (i + 1) & mask) {
    Entry& slot = slots_[i];
    if (slot.second.lsn == 0) {
      slot = Entry{key, write};
      ++size_;
      return;
    }
    if (slot.first == key) {
      if (write.lsn > slot.second.lsn) slot.second = write;
      return;
    }
  }
}

void AckedWriteLedger::Grow() {
  std::vector<Entry> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, 2 * old.size()), Entry{});
  shift_ = 64 - std::countr_zero(slots_.size());
  size_ = 0;
  for (const Entry& entry : old) {
    if (entry.second.lsn != 0) Record(entry.first, entry.second);
  }
}

ClientPool::ClientPool(sim::Simulator* sim, YcsbWorkload* workload,
                       TenantResolver* resolver, LatencyObserver observer)
    : sim_(sim),
      workload_(workload),
      resolver_(resolver),
      observer_(std::move(observer)) {}

void ClientPool::Start() {
  if (running_) return;
  // A transaction routes by its first op's key; later ops on other keys
  // would execute (and be acked) on a server that may not own them.
  SLACKER_CHECK(!route_by_key_ || workload_->config().ops_per_txn == 1,
                "route_by_key needs ops_per_txn == 1");
  running_ = true;
  ScheduleNextArrival();
}

void ClientPool::Stop() {
  running_ = false;
  if (arrival_event_ != 0) {
    sim_->Cancel(arrival_event_);
    arrival_event_ = 0;
  }
}

void ClientPool::ScheduleNextArrival() {
  arrival_event_ = sim_->After(workload_->NextInterarrival(), [this] {
    arrival_event_ = 0;
    if (!running_) return;
    OnArrival();
    ScheduleNextArrival();
  });
}

void ClientPool::OnArrival() {
  PendingTxn txn;
  if (!spare_specs_.empty()) {
    txn.spec = std::move(spare_specs_.back());
    spare_specs_.pop_back();
  }
  workload_->NextTxn(&txn.spec);
  txn.arrival = sim_->Now();
  txn.seq = outstanding_base_ + outstanding_.size();
  ++stats_.arrivals;
  outstanding_.push_back(Outstanding{txn.arrival, false});

  if (busy_clients_ < kMpl) {
    Dispatch(std::move(txn));
  } else {
    queue_.push_back(std::move(txn));
    stats_.max_queue_depth = std::max<uint64_t>(stats_.max_queue_depth,
                                                queue_.size());
  }
}

void ClientPool::Dispatch(PendingTxn txn) {
  ++busy_clients_;
  ++txn.attempts;
  engine::TenantDb* db;
  if (route_by_key_ && !txn.spec.ops.empty()) {
    const engine::Operation& first = txn.spec.ops.front();
    // Inserts land at the engine's next insert key — the top of the
    // key space — so they belong to whoever owns the unbounded tail.
    const uint64_t route_key = first.type == engine::OpType::kInsert
                                   ? UINT64_MAX - 1
                                   : first.key;
    db = resolver_->ResolveForKey(txn.spec.tenant_id, route_key);
  } else {
    db = resolver_->Resolve(txn.spec.tenant_id);
  }
  if (db == nullptr) {
    // No instance to serve this tenant (host crashed, or it is being
    // created/deleted). Back off exponentially: a restart takes
    // seconds, and hammering the resolver every 10 ms would burn the
    // whole attempt budget before the host returns.
    const double backoff =
        std::min(0.01 * static_cast<double>(1 << std::min(txn.attempts, 10)),
                 1.0);
    --busy_clients_;
    sim_->After(backoff, [this, txn = std::move(txn)]() mutable {
      if (busy_clients_ >= kMpl && txn.attempts < kMaxAttempts) {
        // Every client is busy: the retry waits at the head of the
        // queue for the next one to free up.
        ++stats_.retries;
        queue_.push_front(std::move(txn));
        stats_.max_queue_depth =
            std::max<uint64_t>(stats_.max_queue_depth, queue_.size());
        return;
      }
      ++busy_clients_;
      engine::TxnResult result;
      result.status = Status::Unavailable("no tenant mapping");
      result.txn_id = txn.spec.txn_id;
      result.start = txn.arrival;
      result.end = sim_->Now();
      OnTxnDone(std::move(txn), result);
    });
    return;
  }
  // The spec travels with the transaction and comes back in the
  // result (as does the arrival, its start), so the continuation
  // captures 24 bytes and stays inline.
  engine::ExecuteTransaction(
      sim_, db, std::move(txn.spec), txn.arrival, &frames_,
      [this, attempts = txn.attempts,
       seq = txn.seq](engine::TxnResult& result) {
        OnTxnDone(
            PendingTxn{std::move(result.spec), result.start, attempts, seq},
            result);
      });
}

void ClientPool::OnTxnDone(PendingTxn txn, const engine::TxnResult& result) {
  --busy_clients_;
  if (!result.status.ok() && txn.attempts < kMaxAttempts) {
    // The tenant moved under us (or has no mapping yet): re-resolve and
    // retry the whole transaction, preserving the arrival time so the
    // disruption is charged to latency.
    ++stats_.retries;
    Dispatch(std::move(txn));
    // A client slot freed and immediately re-filled; still give the
    // queue a chance below via the dispatch accounting.
    return;
  }

  SLACKER_DCHECK(txn.seq - outstanding_base_ < outstanding_.size(),
                 "retiring a transaction that is not outstanding");
  outstanding_[txn.seq - outstanding_base_].done = true;
  while (!outstanding_.empty() && outstanding_.front().done) {
    outstanding_.pop_front();
    ++outstanding_base_;
  }

  if (result.status.ok()) {
    ++stats_.completed;
    const double latency_ms = result.LatencyMs();
    latency_series_.Add(result.end, latency_ms);
    for (const engine::WrittenRow& w : result.writes) {
      acked_writes_.Record(w.key, AckedWrite{w.lsn, w.digest, w.deleted});
    }
    if (observer_) observer_(txn.spec.tenant_id, result.end, latency_ms);
  } else {
    ++stats_.failed;
    SLACKER_LOG_WARN << "txn " << txn.spec.txn_id << " failed after "
                     << txn.attempts
                     << " attempts: " << result.status.ToString();
  }
  // Without a backlog at most kMpl transactions are outstanding, so
  // kMpl spares serve every arrival; a draining backlog's extra specs
  // are freed rather than held for the rest of the run.
  if (spare_specs_.size() < kMpl) spare_specs_.push_back(std::move(txn.spec));

  // Hand the freed client to the queue head.
  if (!queue_.empty() && busy_clients_ < kMpl) {
    PendingTxn next = std::move(queue_.front());
    queue_.pop_front();
    Dispatch(std::move(next));
  }
}

PercentileTracker ClientPool::latencies() const {
  PercentileTracker tracker;
  for (const common::TracePoint& point : latency_series_.points()) {
    tracker.Add(point.value);
  }
  return tracker;
}

double ClientPool::OldestOutstandingAgeMs(SimTime now) const {
  if (outstanding_.empty()) return 0.0;
  return MsFromSeconds(now - outstanding_.front().arrival);
}

}  // namespace slacker::workload
