#ifndef SLACKER_BACKUP_HOT_BACKUP_H_
#define SLACKER_BACKUP_HOT_BACKUP_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/storage/record.h"

namespace slacker::backup {

struct HotBackupOptions {
  /// Logical bytes per snapshot chunk (the unit that flows through the
  /// pv throttle and the disk queue).
  uint64_t chunk_bytes = kMiB;
};

/// The XtraBackup analog: produces a *fuzzy*, page-ordered snapshot of
/// a live tenant without blocking writers. Each chunk copies the
/// current committed version of the next key range; rows modified after
/// being copied are reconciled by binlog delta replay (each row version
/// carries its LSN, and replay only applies newer versions). The LSN
/// window [start_lsn, end LSN at completion] is what the prepare/delta
/// phases must cover.
class HotBackupStream {
 public:
  struct Chunk {
    uint64_t seq = 0;
    std::vector<storage::Record> rows;
    /// Logical bytes this chunk represents on disk and on the wire.
    uint64_t logical_bytes = 0;
  };

  /// `source` must outlive the stream. Captures start_lsn now.
  /// `start_key` skips rows below it — a resumed migration continues
  /// from the first key the target has not durably staged (chunk
  /// boundaries are cursor-driven, so resumption is by key, not seq).
  /// `end_key` bounds the scan to keys < end_key — a range-granular
  /// migration snapshots only its unit [start_key, end_key); the
  /// default is unbounded (whole tenant).
  HotBackupStream(engine::TenantDb* source, HotBackupOptions options,
                  uint64_t start_key = 0, uint64_t end_key = UINT64_MAX);

  /// Binlog position when the backup began; delta replay starts at
  /// start_lsn + 1.
  storage::Lsn start_lsn() const { return start_lsn_; }

  bool Done() const { return done_; }

  /// Copies the next chunk (in key order). Requires !Done().
  Chunk NextChunk();

  uint64_t next_seq() const { return next_seq_; }
  uint64_t bytes_produced() const { return bytes_produced_; }

  /// Rewinds the cursor so the next NextChunk() re-produces chunk `seq`
  /// (go-back-N retransmission after a target NACK). Requires
  /// seq < next_seq(). Rows mutated since the first transmission ship
  /// in their newer version — harmless, delta replay is LSN-ordered.
  void RewindTo(uint64_t seq);

 private:
  engine::TenantDb* source_;
  HotBackupOptions options_;
  storage::Lsn start_lsn_;
  uint64_t rows_per_chunk_;
  uint64_t end_key_;
  uint64_t next_key_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t bytes_produced_ = 0;
  bool done_ = false;
  /// chunk_start_keys_[seq] = cursor position when chunk seq was cut,
  /// so a NACKed chunk can be re-read from the same key.
  std::vector<uint64_t> chunk_start_keys_;
};

struct PrepareOptions {
  /// Fixed cost of readying the copied tablespace (file fixups, buffer
  /// warmup) — XtraBackup --prepare always takes a couple of seconds.
  SimTime base_seconds = 2.0;
};

}  // namespace slacker::backup

#endif  // SLACKER_BACKUP_HOT_BACKUP_H_
