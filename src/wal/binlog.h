#ifndef SLACKER_WAL_BINLOG_H_
#define SLACKER_WAL_BINLOG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/storage/record.h"
#include "src/wal/log_record.h"

namespace slacker::wal {

/// Per-tenant binary log: an ordered, LSN-indexed append stream of
/// committed row changes. During live migration the delta shipper reads
/// ranges of it (the MySQL "read the binlog from position X" pattern)
/// and the hot backup records the LSN window it must replay.
///
/// A row is a digest, so most of a record is a function of its LSN and
/// key. The log stores only what it cannot derive: one 8-byte word (the
/// key of a row change, the txn id of a commit) and one type byte per
/// record. LSNs come from a table of contiguous runs, row digests are
/// RowDigest(key, lsn, storage::kValueSeed), and sizes are recounted in
/// closed form. The typed appends admit only records the log can
/// reproduce exactly: row changes carry txn id 0 and commits key 0 and
/// digest 0, as the engine writes them.
class Binlog {
 public:
  /// `row_image_bytes` is the logical size of the row image an insert
  /// or update carries (MySQL row-based replication ships full
  /// post-images, so a 1 KiB row costs ~1 KiB of binlog); it is added
  /// to those entries' accounted size on top of the header.
  explicit Binlog(uint64_t row_image_bytes = 0)
      : row_image_bytes_(row_image_bytes) {}

  /// A log moves (into a crashed server's durable state and back); it
  /// is never copied.
  Binlog(const Binlog&) = delete;
  Binlog& operator=(const Binlog&) = delete;
  Binlog(Binlog&&) noexcept = default;
  Binlog& operator=(Binlog&&) noexcept = default;
  ~Binlog() = default;

  /// Appends a row change (kInsert, kUpdate or kDelete) of `key`. The
  /// caller (the engine) assigns `lsn`, which must be strictly
  /// increasing; anything else is engine-state corruption and aborts.
  void AppendRow(storage::Lsn lsn, LogType type, uint64_t key);
  /// Appends the commit record of transaction `txn_id`; same LSN rule.
  void AppendCommit(storage::Lsn lsn, uint64_t txn_id);

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
  /// Same, counting only commits and row changes of keys in
  /// [key_lo, key_hi): what a range-scoped delta round would ship.
  uint64_t BytesInRange(storage::Lsn from, storage::Lsn to, uint64_t key_lo,
                        uint64_t key_hi) const;

  size_t record_count() const { return count_; }
  uint64_t total_bytes() const { return total_bytes_; }

 private:
  /// Records per chunk. Chunks are allocated whole and never move, so
  /// growth copies nothing (a doubling array would briefly hold the
  /// old and the new copy, DESIGN.md §15.6).
  static constexpr size_t kChunkRecords = 512;

  struct Chunk {
    uint64_t words[kChunkRecords];
    LogType types[kChunkRecords];
  };

  /// A stretch of consecutive LSNs: record `first_index` has
  /// `first_lsn`, and each later record of the run the next LSN. A new
  /// run starts wherever the engine's LSN counter jumped (after an
  /// ingest or a checkpoint recovery).
  struct Run {
    storage::Lsn first_lsn = 0;
    size_t first_index = 0;
  };

  void Push(storage::Lsn lsn, LogType type, uint64_t word);
  /// Accounted size: the encoding plus the row image, if any.
  uint64_t RecordBytes(const LogRecord& record) const;
  /// Index of the first record with lsn >= `lsn` (record_count() if
  /// none).
  size_t LowerIndex(storage::Lsn lsn) const;
  /// Index range [begin, end) of records with lsn in [from, to].
  void IndexRange(storage::Lsn from, storage::Lsn to, size_t* begin,
                  size_t* end) const;
  /// Calls `visit(record, bytes)` for records [begin, end), in order;
  /// the record's digest is derived only when `with_digest`.
  template <typename Visit>
  void ForEach(size_t begin, size_t end, bool with_digest,
               Visit visit) const;

  uint64_t row_image_bytes_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<Run> runs_;
  size_t count_ = 0;
  storage::Lsn last_lsn_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace slacker::wal

#endif  // SLACKER_WAL_BINLOG_H_
