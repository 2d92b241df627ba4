#include "src/engine/transaction.h"

#include <utility>

namespace slacker::engine {

/// One in-flight transaction. Each pending continuation captures only
/// the frame pointer (8 bytes), so every hop stays inline. The spec
/// being executed lives in `result.spec`, where the callback finds it.
struct TxnFrame {
  sim::Simulator* sim = nullptr;
  TenantDb* db = nullptr;
  TxnFrames* owner = nullptr;
  TxnResult result;
  size_t next_op = 0;
  TxnCallback done;
  TxnFrame* next_free = nullptr;

  void RunNextOp() {
    const std::vector<Operation>& ops = result.spec.ops;
    if (next_op >= ops.size()) {
      db->Commit(result.spec.txn_id, [this] { Complete(Status::Ok()); });
      return;
    }
    db->ExecuteOp(ops[next_op++],
                  [this](Status status, const WrittenRow& row) {
                    if (!status.ok()) {
                      Complete(std::move(status));
                      return;
                    }
                    if (row.lsn != 0) result.writes.push_back(row);
                    RunNextOp();
                  });
  }

  void Complete(Status status) {
    result.status = std::move(status);
    result.end = sim->Now();
    if (done) done(result);
    done.Reset();
    result.writes.clear();
    owner->Return(this);
  }
};

TxnFrames::TxnFrames() = default;
TxnFrames::~TxnFrames() = default;

TxnFrame* TxnFrames::Take() {
  if (free_ == nullptr) {
    frames_.push_back(std::make_unique<TxnFrame>());
    frames_.back()->owner = this;
    return frames_.back().get();
  }
  TxnFrame* frame = free_;
  free_ = frame->next_free;
  return frame;
}

void TxnFrames::Return(TxnFrame* frame) {
  frame->next_free = free_;
  free_ = frame;
}

void ExecuteTransaction(sim::Simulator* sim, TenantDb* db, TxnSpec spec,
                        SimTime start_time, TxnFrames* frames,
                        TxnCallback done) {
  TxnFrame* frame = frames->Take();
  frame->sim = sim;
  frame->db = db;
  frame->result.txn_id = spec.txn_id;
  frame->result.start = start_time;
  frame->result.spec = std::move(spec);
  frame->next_op = 0;
  frame->done = std::move(done);
  frame->RunNextOp();
}

}  // namespace slacker::engine
