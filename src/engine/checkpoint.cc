#include "src/engine/checkpoint.h"

#include <string>
#include <vector>

#include "src/common/checksum.h"
#include "src/wal/recovery.h"

namespace slacker::engine {

namespace {

constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

uint64_t FoldRow(uint64_t digest, const storage::Record& r) {
  digest = HashCombine(digest, r.key);
  digest = HashCombine(digest, r.lsn);
  return HashCombine(digest, r.digest);
}

}  // namespace

CheckpointImage TakeCheckpoint(const TenantDb& db) {
  CheckpointImage image;
  image.tenant_id = db.config().tenant_id;
  image.lsn = db.last_lsn();
  image.rows.Reserve(db.table().size());
  // One walk: each stack block of rows is digested, then packed.
  storage::Record block[storage::PackedRows::kBlockRows];
  size_t n = 0;
  uint64_t digest = kDigestSeed;
  for (auto it = db.table().Begin(); it.Valid(); it.Next()) {
    block[n] = it.record();
    digest = FoldRow(digest, block[n]);
    if (++n == storage::PackedRows::kBlockRows) {
      image.rows.Append(block, n);
      n = 0;
    }
  }
  image.rows.Append(block, n);
  image.rows.ShrinkToFit();
  image.digest = digest;
  return image;
}

Status ValidateCheckpoint(const CheckpointImage& image) {
  uint64_t digest = kDigestSeed;
  image.rows.ForEachBlock([&](const storage::Record* rows, size_t n) {
    for (size_t i = 0; i < n; ++i) digest = FoldRow(digest, rows[i]);
  });
  if (digest != image.digest) {
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
  // TakeCheckpoint packed the rows in key order; appending them a block
  // at a time builds the same tree as one append of them all.
  image.rows.ForEachBlock([table](const storage::Record* rows, size_t n) {
    table->AppendSorted(rows, n);
  });

  std::vector<wal::LogRecord> suffix;
  log.ReadRange(image.lsn + 1, log.last_lsn(), &suffix);
  wal::Replay(suffix, table);
  const storage::Lsn recovered =
      suffix.empty() ? image.lsn : suffix.back().lsn;
  db->SyncCursorsAfterIngest(recovered);
  return recovered;
}

}  // namespace slacker::engine
