#ifndef SLACKER_WAL_RECOVERY_H_
#define SLACKER_WAL_RECOVERY_H_

#include <cstdint>
#include <vector>

#include "src/storage/btree.h"
#include "src/wal/binlog.h"
#include "src/wal/log_record.h"

namespace slacker::wal {

/// Outcome of replaying a log batch.
struct ReplayStats {
  uint64_t applied = 0;
  /// Records skipped because the row already carried an equal-or-newer
  /// LSN — replay is idempotent.
  uint64_t skipped_stale = 0;
  uint64_t commits = 0;
};

/// Redo-applies `records` to `table`. Row images win only if their LSN
/// is newer than the stored version, so replaying an overlapping or
/// repeated range converges to the same state (the property the hot
/// backup's prepare step and the delta rounds rely on).
void Replay(const std::vector<LogRecord>& records, storage::BTree* table,
            ReplayStats* stats = nullptr);

/// Replays the binlog suffix with lsn >= `from` into `table` — the
/// restart-after-crash path when no checkpoint image exists (the
/// initial Load() acts as the implicit LSN-0 checkpoint).
void ReplayBinlog(const Binlog& log, storage::Lsn from, storage::BTree* table,
                  ReplayStats* stats = nullptr);

}  // namespace slacker::wal

#endif  // SLACKER_WAL_RECOVERY_H_
