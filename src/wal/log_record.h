#ifndef SLACKER_WAL_LOG_RECORD_H_
#define SLACKER_WAL_LOG_RECORD_H_

#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/storage/record.h"

namespace slacker::wal {

/// A tenant's keys are fixed at load, so the only row change is an
/// update. Type bytes 1 and 3 are unassigned: a record carrying either
/// decodes as corruption.
enum class LogType : uint8_t {
  kUpdate = 2,
  kCommit = 4,
};

/// One binlog entry. An update carries the *full row image* (key +
/// post-image digest), which is what makes delta replay idempotent:
/// re-applying an update sets the same final state.
struct LogRecord {
  storage::Lsn lsn = 0;
  LogType type = LogType::kCommit;
  uint64_t txn_id = 0;
  uint64_t key = 0;
  /// Post-image digest (unused for kCommit).
  uint64_t digest = 0;

  bool operator==(const LogRecord& other) const = default;

  /// Serialized size in bytes (the on-wire/on-disk footprint charged to
  /// the binlog file and to delta transfers): exactly what EncodeTo
  /// writes, counted in closed form without encoding.
  size_t EncodedSize() const;

  void EncodeTo(ByteWriter* writer) const;
  static Status DecodeFrom(ByteReader* reader, LogRecord* out);
};

}  // namespace slacker::wal

#endif  // SLACKER_WAL_LOG_RECORD_H_
