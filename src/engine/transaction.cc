#include "src/engine/transaction.h"

#include <memory>
#include <utility>

namespace slacker::engine {
namespace {

/// One transaction's state, owned by whichever continuation is pending
/// (a move-only 8-byte capture, so every hop stays inline).
struct TxnState {
  sim::Simulator* sim;
  TenantDb* db;
  TxnSpec spec;
  TxnResult result;
  size_t next_op = 0;
  TxnCallback done;

  void Complete(Status status) {
    result.status = std::move(status);
    result.end = sim->Now();
    result.spec = std::move(spec);
    if (done) done(std::move(result));
  }
};

void RunNextOp(std::unique_ptr<TxnState> state) {
  TxnState* raw = state.get();
  if (raw->next_op >= raw->spec.ops.size()) {
    raw->db->Commit(raw->spec.txn_id, [state = std::move(state)] {
      state->Complete(Status::Ok());
    });
    return;
  }
  const Operation& op = raw->spec.ops[raw->next_op++];
  raw->db->ExecuteOp(op, [state = std::move(state)](
                             Status status, const WrittenRow& row) mutable {
    if (!status.ok()) {
      state->Complete(std::move(status));
      return;
    }
    if (row.lsn != 0) state->result.writes.push_back(row);
    RunNextOp(std::move(state));
  });
}

}  // namespace

void ExecuteTransaction(sim::Simulator* sim, TenantDb* db, TxnSpec spec,
                        SimTime start_time, TxnCallback done) {
  auto state = std::make_unique<TxnState>();
  state->sim = sim;
  state->db = db;
  state->spec = std::move(spec);
  state->result.txn_id = state->spec.txn_id;
  state->result.start = start_time;
  state->done = std::move(done);
  RunNextOp(std::move(state));
}

}  // namespace slacker::engine
