#include "src/workload/replay.h"

#include <utility>

namespace slacker::workload {

bool RecordedTxn::operator==(const RecordedTxn& other) const {
  if (arrival != other.arrival || spec.txn_id != other.spec.txn_id ||
      spec.tenant_id != other.spec.tenant_id ||
      spec.ops.size() != other.spec.ops.size()) {
    return false;
  }
  for (size_t i = 0; i < spec.ops.size(); ++i) {
    if (spec.ops[i].type != other.spec.ops[i].type ||
        spec.ops[i].key != other.spec.ops[i].key ||
        spec.ops[i].scan_length != other.spec.ops[i].scan_length) {
      return false;
    }
  }
  return true;
}

WorkloadTrace::WorkloadTrace(std::vector<RecordedTxn> txns)
    : txns_(std::move(txns)) {}

SimTime WorkloadTrace::DurationSeconds() const {
  return txns_.empty() ? 0.0 : txns_.back().arrival;
}

std::vector<uint8_t> WorkloadTrace::Serialize() const {
  ByteWriter writer;
  writer.PutVarint64(txns_.size());
  for (const RecordedTxn& txn : txns_) {
    writer.PutDouble(txn.arrival);
    writer.PutVarint64(txn.spec.txn_id);
    writer.PutVarint64(txn.spec.tenant_id);
    writer.PutVarint64(txn.spec.ops.size());
    for (const engine::Operation& op : txn.spec.ops) {
      writer.PutU8(static_cast<uint8_t>(op.type));
      writer.PutVarint64(op.key);
      writer.PutVarint64(op.scan_length);
    }
  }
  return writer.Release();
}

Result<WorkloadTrace> WorkloadTrace::Deserialize(
    const std::vector<uint8_t>& data) {
  ByteReader reader(data);
  uint64_t count;
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&count));
  std::vector<RecordedTxn> txns;
  txns.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    RecordedTxn txn;
    SLACKER_RETURN_IF_ERROR(reader.GetDouble(&txn.arrival));
    SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&txn.spec.txn_id));
    SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&txn.spec.tenant_id));
    uint64_t ops;
    SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&ops));
    txn.spec.ops.reserve(ops);
    for (uint64_t j = 0; j < ops; ++j) {
      uint8_t type;
      engine::Operation op;
      SLACKER_RETURN_IF_ERROR(reader.GetU8(&type));
      if (type > static_cast<uint8_t>(engine::OpType::kScan)) {
        return Status::Corruption("bad op type in trace");
      }
      op.type = static_cast<engine::OpType>(type);
      SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&op.key));
      SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&op.scan_length));
      txn.spec.ops.push_back(op);
    }
    txns.push_back(std::move(txn));
  }
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes in trace");
  }
  return WorkloadTrace(std::move(txns));
}

WorkloadTrace RecordWorkload(YcsbWorkload* workload, SimTime seconds) {
  std::vector<RecordedTxn> txns;
  SimTime now = 0.0;
  while (true) {
    now += workload->NextInterarrival();
    if (now > seconds) break;
    RecordedTxn txn;
    txn.arrival = now;
    txn.spec = workload->NextTxn();
    txns.push_back(std::move(txn));
  }
  return WorkloadTrace(std::move(txns));
}

TraceReplayer::TraceReplayer(sim::Simulator* sim, const WorkloadTrace* trace,
                             TenantResolver* resolver, int mpl,
                             ClientPool::LatencyObserver observer)
    : sim_(sim),
      trace_(trace),
      resolver_(resolver),
      mpl_(mpl),
      observer_(std::move(observer)) {}

void TraceReplayer::Start() {
  for (size_t i = 0; i < trace_->size(); ++i) {
    sim_->After(trace_->txns()[i].arrival,
                [this, i] { OnArrival(i); });
  }
}

bool TraceReplayer::Finished() const {
  return completed_ + failed_ == trace_->size();
}

void TraceReplayer::OnArrival(size_t index) {
  Pending txn;
  txn.spec = trace_->txns()[index].spec;
  txn.arrival = sim_->Now();
  if (busy_ < mpl_) {
    Dispatch(std::move(txn));
  } else {
    queue_.push_back(std::move(txn));
  }
}

void TraceReplayer::Dispatch(Pending txn) {
  ++busy_;
  ++txn.attempts;
  ++dispatched_;
  engine::TenantDb* db = resolver_->Resolve(txn.spec.tenant_id);
  if (db == nullptr) {
    --busy_;
    --dispatched_;
    sim_->After(0.01, [this, txn = std::move(txn)]() mutable {
      ++busy_;
      engine::TxnResult result;
      result.status = Status::Unavailable("no tenant mapping");
      result.start = txn.arrival;
      result.end = sim_->Now();
      OnDone(std::move(txn), result);
    });
    return;
  }
  engine::ExecuteTransaction(
      sim_, db, std::move(txn.spec), txn.arrival,
      [this, arrival = txn.arrival,
       attempts = txn.attempts](engine::TxnResult result) {
        OnDone(Pending{std::move(result.spec), arrival, attempts}, result);
      });
}

void TraceReplayer::OnDone(Pending txn, const engine::TxnResult& result) {
  --busy_;
  if (!result.status.ok() && txn.attempts < kMaxAttempts) {
    Dispatch(std::move(txn));
    return;
  }
  if (result.status.ok()) {
    ++completed_;
    const double latency_ms = result.LatencyMs();
    latencies_.Add(latency_ms);
    latency_series_.Add(result.end, latency_ms);
    if (observer_) observer_(txn.spec.tenant_id, result.end, latency_ms);
  } else {
    ++failed_;
  }
  if (!queue_.empty() && busy_ < mpl_) {
    Pending next = std::move(queue_.front());
    queue_.pop_front();
    Dispatch(std::move(next));
  }
}

}  // namespace slacker::workload
