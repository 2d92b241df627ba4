#ifndef SLACKER_BACKUP_DELTA_SHIPPER_H_
#define SLACKER_BACKUP_DELTA_SHIPPER_H_

#include <cstdint>
#include <vector>

#include "src/codec/chunk_codec.h"
#include "src/engine/tenant_db.h"
#include "src/obs/metric_registry.h"
#include "src/wal/binlog.h"
#include "src/wal/recovery.h"

namespace slacker::backup {

/// One delta round's extent.
struct DeltaRound {
  storage::Lsn from = 0;
  storage::Lsn to = 0;
  std::vector<wal::LogRecord> records;
  uint64_t bytes = 0;

  bool empty() const { return records.empty(); }
};

/// Reads successive binlog ranges from the source — the §2.3.2 delta
/// loop: "each delta brings the target up-to-date at the point where
/// the delta began executing, then the subsequent delta handles queries
/// executed during the application of the previous delta."
class DeltaShipper {
 public:
  /// Rounds start after `applied_lsn` (the snapshot's start LSN).
  DeltaShipper(const wal::Binlog* source_log, storage::Lsn applied_lsn);

  /// Restricts rounds to row changes with key in [lo, hi) — a
  /// range-granular migration ships only its unit's deltas. Commit
  /// records always ship (they carry no row and keep transaction
  /// boundaries intact at the target). Rounds still advance through
  /// the full LSN sequence; filtered-out records are simply not
  /// shipped, since another job owns them.
  void RestrictToKeys(uint64_t lo, uint64_t hi);

  /// Bytes of log not yet shipped.
  uint64_t PendingBytes() const;
  storage::Lsn applied_lsn() const { return applied_lsn_; }

  /// Reads everything committed since the last round. An empty result
  /// means the target is fully caught up.
  DeltaRound ReadRound();

  /// Marks a round durable at the target; the next round starts after
  /// `to`.
  void MarkApplied(storage::Lsn to);

  int rounds_shipped() const { return rounds_shipped_; }
  uint64_t bytes_shipped() const { return bytes_shipped_; }

  /// Mirrors rounds/bytes shipped into registry counters; nullptrs
  /// detach. Off by default.
  void AttachObs(obs::Counter* rounds, obs::Counter* bytes) {
    rounds_counter_ = rounds;
    bytes_counter_ = bytes;
  }

 private:
  const wal::Binlog* source_log_;
  storage::Lsn applied_lsn_;
  bool key_filtered_ = false;
  uint64_t key_lo_ = 0;
  uint64_t key_hi_ = 0;
  int rounds_shipped_ = 0;
  uint64_t bytes_shipped_ = 0;
  obs::Counter* rounds_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
};

/// Synthesized row images for a delta round, one per log record — the
/// deterministic stand-in for the round's real byte payload that the
/// codec materializes/compresses. Source and target derive identical
/// images from identical log records, so payload CRCs verify end to
/// end.
std::vector<storage::Record> RowImagesFromLog(
    const std::vector<wal::LogRecord>& records);

/// Encodes one delta round as a codec frame (kLz or kRaw). Per-image
/// payload size is the round's average record footprint, so the
/// materialized payload tracks round.bytes.
codec::EncodedChunk EncodeRound(const DeltaRound& round,
                                codec::Codec requested,
                                const codec::CodecConfig& config);

}  // namespace slacker::backup

#endif  // SLACKER_BACKUP_DELTA_SHIPPER_H_
