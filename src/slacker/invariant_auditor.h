#ifndef SLACKER_SLACKER_INVARIANT_AUDITOR_H_
#define SLACKER_SLACKER_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <map>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/units.h"
#include "src/slacker/options.h"

namespace slacker {

/// Always-on runtime auditor for the invariants deterministic replay
/// leans on (DESIGN.md §9): the MigrationPhase transition table,
/// sim-clock monotonicity, snapshot chunk/byte conservation, and
/// throttle-rate bounds. Owned by Cluster (one per testbed) and reached
/// through Cluster::auditor(), never null; every hook is cheap (O(1) or a
/// small map lookup) and every violation is fatal via SLACKER_CHECK —
/// a corrupted migration state machine must stop the run at the point
/// of corruption, not ten minutes later in a divergent golden trace.
class InvariantAuditor {
 public:
  /// Per-tenant snapshot-chunk ledger. Conservation invariant at a
  /// successful handover: every chunk the source sent was either
  /// applied in order at the target, discarded by the target
  /// (duplicate, gap behind a NACK, or CRC failure), or eaten by the
  /// network (partition, crashed receiver) — sent = applied +
  /// discarded + dropped, in chunk, logical-byte, and wire-byte units.
  /// Wire bytes are the post-codec encoded payload sizes (equal to
  /// logical for raw frames); tracking both legs catches a codec that
  /// loses or double-counts compressed bytes even when the logical
  /// ledger still balances.
  struct ChunkLedger {
    uint64_t sent_chunks = 0;
    uint64_t sent_bytes = 0;
    uint64_t sent_wire_bytes = 0;
    uint64_t applied_chunks = 0;
    uint64_t applied_bytes = 0;
    uint64_t applied_wire_bytes = 0;
    uint64_t discarded_chunks = 0;
    uint64_t discarded_bytes = 0;
    uint64_t discarded_wire_bytes = 0;
    uint64_t dropped_chunks = 0;
    uint64_t dropped_bytes = 0;
    uint64_t dropped_wire_bytes = 0;
    bool active = false;
  };

  /// True when the migration state machine permits `from` -> `to`.
  /// kDone/kFailed are terminal; the full table is in DESIGN.md §9.
  static bool TransitionAllowed(MigrationPhase from, MigrationPhase to);

  /// Fatal unless TransitionAllowed(from, to).
  void OnPhaseTransition(uint64_t tenant_id, MigrationPhase from,
                         MigrationPhase to);

  /// Fatal if `now` runs backwards relative to any previously sampled
  /// time — the discrete-event clock must be monotone or replay
  /// ordering is meaningless.
  void OnClockSample(SimTime now);

  /// Fatal unless `rate_mbps` is finite and inside
  /// [min_mbps - tolerance, max_mbps + tolerance] — the controller must
  /// respect its actuator clamp every tick.
  void OnThrottleRate(uint64_t tenant_id, double rate_mbps, double min_mbps,
                      double max_mbps);

  // --- Chunk conservation ------------------------------------------
  /// Opens (and zeroes) the tenant's ledger; one migration attempt per
  /// tenant is tracked at a time. Chunk events for tenants without an
  /// open ledger are ignored — they are stragglers from a previous
  /// attempt still draining out of the network.
  void BeginMigration(uint64_t tenant_id);
  /// `bytes` is the logical payload size, `wire_bytes` the encoded
  /// (post-codec) size actually metered through throttle and link.
  void OnChunkSent(uint64_t tenant_id, uint64_t bytes, uint64_t wire_bytes);
  void OnChunkApplied(uint64_t tenant_id, uint64_t bytes, uint64_t wire_bytes);
  void OnChunkDiscarded(uint64_t tenant_id, uint64_t bytes,
                        uint64_t wire_bytes);
  void OnChunkDropped(uint64_t tenant_id, uint64_t bytes, uint64_t wire_bytes);
  /// Fatal unless sent = applied + discarded + dropped (chunks,
  /// logical bytes, and wire bytes). Call only once the pipe is
  /// drained — in practice when the
  /// migration finishes successfully, since the snapshot ack orders
  /// after every chunk on the FIFO channel.
  void CheckChunkConservation(uint64_t tenant_id);
  /// Closes the tenant's ledger (success or failure).
  void EndMigration(uint64_t tenant_id);

  // --- Maintenance & rolling upgrades (DESIGN.md §12) --------------
  /// Fatal when a tenant lands on a draining server — drain mode must
  /// reject every placement path (new tenants and migration staging
  /// alike). Called after the placement decision with the host's
  /// drain flag.
  void OnTenantPlaced(uint64_t server_id, uint64_t tenant_id, bool draining);
  /// Fatal unless the version move is monotone within the upgrade
  /// machinery's vocabulary: either an upgrade (to > from) or an exact
  /// rollback to the server's previous version. Repeated sets to the
  /// current version are no-ops and allowed.
  void OnServerVersionChange(uint64_t server_id, uint32_t from_version,
                             uint32_t to_version);

  // --- Range-granular migration (DESIGN.md §16) --------------------
  /// Fatal unless the RangeDirectory's coverage invariant holds after a
  /// mutation: the tenant's ranges tile [0, kNoUpperBound) with no hole
  /// or overlap, each range owned by exactly one server. Callers pass
  /// RangeDirectory::ValidateCoverage's verdict; a routing table with a
  /// hole silently loses queries, so the run must stop here.
  void OnRangeCoverage(uint64_t tenant_id, const Status& coverage);
  /// Fatal unless a per-key routed operation landed on the range's
  /// owner — serving a read from a server that just handed the range
  /// away returns stale rows.
  void OnOpRouted(uint64_t tenant_id, uint64_t key, uint64_t routed_server,
                  uint64_t owner_server);
  /// Per-range chunk conservation reuses the per-tenant ledger: each
  /// job opens its own epoch (BeginMigration zeroes it) and
  /// Cluster::StartMigration runs one job per tenant at a time, so
  /// CheckChunkConservation at a handover is exactly the job's check.

  /// The tenant's ledger, or nullptr when none is open (tests and
  /// diagnostics; the auditor's own checks use CheckChunkConservation).
  const ChunkLedger* ledger(uint64_t tenant_id) const;

  /// Total fatal-check evaluations that passed (cheap liveness signal
  /// for tests asserting the auditor actually ran).
  uint64_t checks_passed() const { return checks_passed_; }

 private:
  ChunkLedger* ActiveLedger(uint64_t tenant_id);

  std::map<uint64_t, ChunkLedger> ledgers_;
  /// Per-server (previous, current) software versions observed through
  /// OnServerVersionChange; absent until the first change.
  std::map<uint64_t, std::pair<uint32_t, uint32_t>> versions_;
  SimTime last_time_ = 0.0;
  bool have_time_ = false;
  uint64_t checks_passed_ = 0;
};

}  // namespace slacker

#endif  // SLACKER_SLACKER_INVARIANT_AUDITOR_H_
