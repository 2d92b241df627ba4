#ifndef SLACKER_WAL_BINLOG_H_
#define SLACKER_WAL_BINLOG_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/status.h"
#include "src/wal/log_record.h"

namespace slacker::wal {

/// Per-tenant binary log: an ordered, LSN-indexed append stream of
/// committed row changes. During live migration the delta shipper reads
/// ranges of it (the MySQL "read the binlog from position X" pattern)
/// and the hot backup records the LSN window it must replay.
class Binlog {
 public:
  Binlog() = default;

  /// Appends a record; lsn is assigned by the caller (the engine) and
  /// must be strictly increasing. `row_image_bytes` is the logical size
  /// of the row image this entry carries (MySQL row-based replication
  /// ships full post-images, so a 1 KiB row costs ~1 KiB of binlog);
  /// it is added to the entry's accounted size on top of the header.
  Status Append(const LogRecord& record, uint64_t row_image_bytes = 0);

  /// LSN the next append is expected to carry (last + 1; 1 if empty).
  storage::Lsn NextLsn() const { return last_lsn_ + 1; }
  storage::Lsn last_lsn() const { return last_lsn_; }

  /// Copies records with lsn in [from, to] into `out`. The log is never
  /// purged, so every range is retained.
  void ReadRange(storage::Lsn from, storage::Lsn to,
                 std::vector<LogRecord>* out) const;

  /// Same, also emitting each record's accounted size (header + row
  /// image) so a caller that filters the batch can recompute its wire
  /// footprint. `out_bytes` is index-parallel with `out`.
  void ReadRange(storage::Lsn from, storage::Lsn to,
                 std::vector<LogRecord>* out,
                 std::vector<uint64_t>* out_bytes) const;

  /// Serialized bytes of records with lsn in [from, to].
  uint64_t BytesInRange(storage::Lsn from, storage::Lsn to) const;

  size_t record_count() const { return records_.size(); }
  uint64_t total_bytes() const { return total_bytes_; }

 private:
  std::deque<LogRecord> records_;
  std::deque<uint64_t> record_bytes_;
  storage::Lsn last_lsn_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace slacker::wal

#endif  // SLACKER_WAL_BINLOG_H_
