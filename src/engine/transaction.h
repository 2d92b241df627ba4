#ifndef SLACKER_ENGINE_TRANSACTION_H_
#define SLACKER_ENGINE_TRANSACTION_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/sim/callback.h"
#include "src/sim/simulator.h"

namespace slacker::engine {

/// A transaction: a serial list of basic operations (the paper's
/// modified-YCSB transactions are 10 operations each).
struct TxnSpec {
  uint64_t txn_id = 0;
  uint64_t tenant_id = 0;
  std::vector<Operation> ops;
};

struct TxnResult {
  Status status;
  uint64_t txn_id = 0;
  SimTime start = 0.0;
  SimTime end = 0.0;
  /// Row images of every write this transaction performed, in order;
  /// lets clients verify durability end-to-end across migrations.
  std::vector<WrittenRow> writes;
  /// The executed spec, handed back so a retry needs no copy of it.
  TxnSpec spec;

  double LatencyMs() const { return MsFromSeconds(end - start); }
};

using TxnCallback = sim::Callback<void(TxnResult)>;

/// Executes a transaction against `db`: ops run serially (each op's
/// CPU+I/O completes before the next begins), then the commit record is
/// flushed. If any op fails (e.g., the tenant migrated away
/// mid-transaction), the transaction aborts with that status and the
/// client retries against the new authoritative replica. `start_time`
/// is when the transaction arrived — queueing delay ahead of execution
/// counts toward its latency (§5.1.2). The txn owns its state, and
/// `done` gets the spec back in TxnResult::spec; `db` and `sim` must
/// outlive completion.
void ExecuteTransaction(sim::Simulator* sim, TenantDb* db, TxnSpec spec,
                        SimTime start_time, TxnCallback done);

}  // namespace slacker::engine

#endif  // SLACKER_ENGINE_TRANSACTION_H_
