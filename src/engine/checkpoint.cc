#include "src/engine/checkpoint.h"

#include "src/common/checksum.h"
#include "src/wal/recovery.h"

namespace slacker::engine {

uint64_t CheckpointDigest(const std::vector<storage::Record>& rows) {
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const storage::Record& r : rows) {
    digest = HashCombine(digest, r.key);
    digest = HashCombine(digest, r.lsn);
    digest = HashCombine(digest, r.digest);
  }
  return digest;
}

CheckpointImage TakeCheckpoint(const TenantDb& db) {
  CheckpointImage image;
  image.tenant_id = db.config().tenant_id;
  image.lsn = db.last_lsn();
  image.rows.reserve(db.table().size());
  for (auto it = db.table().Begin(); it.Valid(); it.Next()) {
    image.rows.push_back(it.record());
  }
  image.digest = CheckpointDigest(image.rows);
  return image;
}

Status ValidateCheckpoint(const CheckpointImage& image) {
  if (CheckpointDigest(image.rows) != image.digest) {
    return Status::Corruption("checkpoint digest mismatch for tenant " +
                              std::to_string(image.tenant_id));
  }
  return Status::Ok();
}

Result<storage::Lsn> RecoverFromCheckpoint(const CheckpointImage& image,
                                           const wal::Binlog& log,
                                           TenantDb* db) {
  SLACKER_RETURN_IF_ERROR(ValidateCheckpoint(image));
  if (image.tenant_id != db->config().tenant_id) {
    return Status::InvalidArgument("checkpoint belongs to another tenant");
  }
  storage::BTree* table = db->mutable_table();
  table->Clear();
  // TakeCheckpoint wrote the rows in key order.
  table->AppendSorted(image.rows.data(), image.rows.size());

  std::vector<wal::LogRecord> suffix;
  log.ReadRange(image.lsn + 1, log.last_lsn(), &suffix);
  wal::Replay(suffix, table);
  const storage::Lsn recovered =
      suffix.empty() ? image.lsn : suffix.back().lsn;
  db->SyncCursorsAfterIngest(recovered);
  return recovered;
}

}  // namespace slacker::engine
