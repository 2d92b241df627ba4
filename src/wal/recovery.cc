#include "src/wal/recovery.h"

namespace slacker::wal {

void Replay(const std::vector<LogRecord>& records, storage::BTree* table,
            ReplayStats* stats) {
  ReplayStats local;
  for (const LogRecord& record : records) {
    switch (record.type) {
      case LogType::kCommit:
        ++local.commits;
        break;
      case LogType::kUpdate: {
        const storage::Record* existing = table->Get(record.key);
        if (existing != nullptr && existing->lsn >= record.lsn) {
          ++local.skipped_stale;
          break;
        }
        table->Put(storage::Record{record.key, record.lsn, record.digest});
        ++local.applied;
        break;
      }
    }
  }
  if (stats != nullptr) *stats = local;
}

void ReplayBinlog(const Binlog& log, storage::Lsn from, storage::BTree* table,
                  ReplayStats* stats) {
  std::vector<LogRecord> records;
  log.ReadRange(from, log.last_lsn(), &records);
  Replay(records, table, stats);
}

}  // namespace slacker::wal
