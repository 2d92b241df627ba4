#ifndef SLACKER_ENGINE_CHECKPOINT_H_
#define SLACKER_ENGINE_CHECKPOINT_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/engine/tenant_db.h"
#include "src/storage/packed_rows.h"
#include "src/storage/record.h"
#include "src/wal/binlog.h"

namespace slacker::engine {

/// A consistent point-in-time image of a tenant's table, the unit of
/// local durability: a crash loses everything after `lsn` unless it is
/// in the binlog, and recovery = load image + replay binlog suffix.
/// (Live migration uses the streaming HotBackup instead; checkpoints
/// serve restart-after-crash and binlog retention.)
///
/// The rows are packed (storage::PackedRows): a key gap and an LSN per
/// row, and a digest only where it is not the derived one, so a loaded
/// tenant's image holds about 2 bytes per row. The image keeps no
/// decoded copy; validation and recovery decode it a block at a time.
struct CheckpointImage {
  uint64_t tenant_id = 0;
  /// All committed row changes with lsn <= this are reflected.
  storage::Lsn lsn = 0;
  /// In strictly ascending key order.
  storage::PackedRows rows;
  /// Digest of the (key, lsn, digest) triples in key order, the same
  /// fold as TenantDb::StateDigest, for integrity checking.
  uint64_t digest = 0;

  /// Logical size (what writing this checkpoint to disk costs).
  uint64_t LogicalBytes(uint64_t record_bytes) const {
    return rows.size() * record_bytes;
  }
};

/// Captures a checkpoint of `db` at its current LSN, packing and
/// digesting each row in one walk of the table. The tenant must be
/// quiesced by the caller (frozen, or known-idle) — a fuzzy checkpoint
/// is exactly what HotBackupStream provides instead.
CheckpointImage TakeCheckpoint(const TenantDb& db);

/// Verifies the image's digest. kCorruption on mismatch.
Status ValidateCheckpoint(const CheckpointImage& image);

/// Rebuilds `db`'s table from `image` plus the binlog suffix
/// (lsn > image.lsn) read from `log`. Returns the LSN recovered up to.
/// Fails if the image is corrupt or belongs to another tenant.
Result<storage::Lsn> RecoverFromCheckpoint(const CheckpointImage& image,
                                           const wal::Binlog& log,
                                           TenantDb* db);

}  // namespace slacker::engine

#endif  // SLACKER_ENGINE_CHECKPOINT_H_
