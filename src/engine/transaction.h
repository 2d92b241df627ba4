#ifndef SLACKER_ENGINE_TRANSACTION_H_
#define SLACKER_ENGINE_TRANSACTION_H_

#include <cstdint>
#include <memory>
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

/// Receives the finished transaction. The result lives in a recycled
/// frame: the callee may move `spec` (or anything else) out of it, and
/// must not keep a reference past its return, after which the frame
/// clears `writes` (keeping its capacity) and takes the next
/// transaction. `const TxnResult&` lambdas bind too.
using TxnCallback = sim::Callback<void(TxnResult&)>;

struct TxnFrame;

/// The frames ExecuteTransaction runs transactions in, recycled so a
/// warm transaction allocates nothing (DESIGN.md §15.6). A frame is
/// taken per transaction and returned when its callback returns, so
/// the pool grows to the caller's peak in-flight count plus one (a
/// callback may start the next transaction before its own frame is
/// back). Pending continuations point into the frames without owning
/// them: the frames must outlive every transaction they run, its
/// callback included (a callback must not destroy them), and one
/// whose continuation is dropped unrun stays taken until the pool is
/// destroyed.
class TxnFrames {
 public:
  TxnFrames();
  ~TxnFrames();

  TxnFrames(const TxnFrames&) = delete;
  TxnFrames& operator=(const TxnFrames&) = delete;

 private:
  friend struct TxnFrame;
  friend void ExecuteTransaction(sim::Simulator*, TenantDb*, TxnSpec,
                                 SimTime, TxnFrames*, TxnCallback);

  TxnFrame* Take();
  void Return(TxnFrame* frame);

  std::vector<std::unique_ptr<TxnFrame>> frames_;
  TxnFrame* free_ = nullptr;  // Intrusive list through TxnFrame::next_free.
};

/// Executes a transaction against `db`: ops run serially (each op's
/// CPU+I/O completes before the next begins), then the commit record is
/// flushed. If any op fails (e.g., the tenant migrated away
/// mid-transaction), the transaction aborts with that status and the
/// client retries against the new authoritative replica. `start_time`
/// is when the transaction arrived — queueing delay ahead of execution
/// counts toward its latency (§5.1.2). The transaction runs in a frame
/// of `frames`, and `done` gets the spec back in TxnResult::spec; `db`,
/// `sim` and `frames` must outlive completion.
void ExecuteTransaction(sim::Simulator* sim, TenantDb* db, TxnSpec spec,
                        SimTime start_time, TxnFrames* frames,
                        TxnCallback done);

}  // namespace slacker::engine

#endif  // SLACKER_ENGINE_TRANSACTION_H_
