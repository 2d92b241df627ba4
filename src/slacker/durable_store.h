#ifndef SLACKER_SLACKER_DURABLE_STORE_H_
#define SLACKER_SLACKER_DURABLE_STORE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/engine/checkpoint.h"
#include "src/net/message.h"
#include "src/storage/packed_rows.h"
#include "src/storage/record.h"
#include "src/wal/binlog.h"

namespace slacker {

/// What a crashed server can recover for one tenant: its configuration
/// and the durable binlog (the binlog IS the tenant's WAL — every
/// committed change is in it, so Load() + full replay, or checkpoint
/// image + suffix replay, reconstructs the exact pre-crash state).
struct DurableTenantState {
  engine::TenantConfig config;
  wal::Binlog log;
};

/// Snapshot chunks an incoming migration has written durably, so a
/// retried migration to this server resumes instead of re-streaming.
/// Rows below `resume_key` are staged as of `start_lsn`; the resumed
/// source streams [resume_key, ...] and ships deltas from `start_lsn`.
/// The rows arrive chunk by chunk in ascending key order and are kept
/// packed, as a checkpoint image keeps its rows; a stream that does not
/// resume starts a new record.
struct StagedSnapshot {
  uint64_t tenant_id = 0;
  uint64_t source_server = 0;
  net::TenantWireConfig config;
  storage::Lsn start_lsn = 0;
  uint64_t resume_key = 0;
  uint64_t bytes_staged = 0;
  storage::PackedRows rows;
};

/// The crash-surviving slice of one server's disk: checkpoint images,
/// per-tenant crash state captured at CrashServer time, and staged
/// snapshot chunks of interrupted incoming migrations. Images and
/// staged chunks hold their rows packed (storage::PackedRows), a few
/// bytes per row rather than a 24-byte Record. Volatile state
/// (buffer pools, sessions, jobs, in-flight I/O) dies with the server;
/// everything here comes back on restart.
class DurableStore {
 public:
  // --- Checkpoints ------------------------------------------------
  void SaveCheckpoint(engine::CheckpointImage image);
  /// nullptr if the tenant was never checkpointed here.
  const engine::CheckpointImage* Checkpoint(uint64_t tenant_id) const;
  void EraseCheckpoint(uint64_t tenant_id);

  // --- Crash state ------------------------------------------------
  void SaveCrashState(uint64_t tenant_id, DurableTenantState state);
  DurableTenantState* CrashState(uint64_t tenant_id);
  std::vector<uint64_t> CrashedTenants() const;
  void EraseCrashState(uint64_t tenant_id);

  // --- Staged snapshots -------------------------------------------
  /// The staged record for `tenant_id`, or nullptr.
  StagedSnapshot* Staged(uint64_t tenant_id);
  /// Creates (or resets, when `start_lsn` differs from the stored one —
  /// a fresh stream invalidates old staging) the staged record.
  StagedSnapshot* EnsureStaged(uint64_t tenant_id, uint64_t source_server,
                               const net::TenantWireConfig& config,
                               storage::Lsn start_lsn);
  /// Appends durably-written chunk rows, which must ascend above every
  /// staged key, and advances the resume key.
  void AppendStagedRows(uint64_t tenant_id,
                        const std::vector<storage::Record>& rows,
                        uint64_t next_resume_key, uint64_t bytes);
  void EraseStaged(uint64_t tenant_id);

 private:
  std::map<uint64_t, engine::CheckpointImage> checkpoints_;
  std::map<uint64_t, DurableTenantState> crash_states_;
  std::map<uint64_t, StagedSnapshot> staged_;
};

}  // namespace slacker

#endif  // SLACKER_SLACKER_DURABLE_STORE_H_
