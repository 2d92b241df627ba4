#include "src/backup/hot_backup.h"

#include <algorithm>

namespace slacker::backup {

HotBackupStream::HotBackupStream(engine::TenantDb* source,
                                 HotBackupOptions options, uint64_t start_key,
                                 uint64_t end_key)
    : source_(source),
      options_(options),
      start_lsn_(source->last_lsn()),
      end_key_(end_key),
      next_key_(start_key) {
  const uint64_t record_bytes = source->config().layout.record_bytes;
  rows_per_chunk_ = std::max<uint64_t>(1, options_.chunk_bytes / record_bytes);
  auto it = source_->table().Seek(start_key);
  done_ = !it.Valid() || it.record().key >= end_key_;
}

void HotBackupStream::RewindTo(uint64_t seq) {
  if (seq >= next_seq_) return;
  next_key_ = chunk_start_keys_[seq];
  next_seq_ = seq;
  chunk_start_keys_.resize(seq);
  auto it = source_->table().Seek(next_key_);
  done_ = !it.Valid() || it.record().key >= end_key_;
}

HotBackupStream::Chunk HotBackupStream::NextChunk() {
  Chunk chunk;
  chunk.seq = next_seq_++;
  chunk_start_keys_.push_back(next_key_);
  chunk.rows.reserve(rows_per_chunk_);
  // Resume the scan at the cursor key rather than keep an iterator:
  // the tree may change between chunks while the backup runs.
  auto it = source_->table().Seek(next_key_);
  uint64_t copied = 0;
  while (it.Valid() && it.record().key < end_key_ && copied < rows_per_chunk_) {
    chunk.rows.push_back(it.record());
    ++copied;
    it.Next();
  }
  if (!chunk.rows.empty()) {
    next_key_ = chunk.rows.back().key + 1;
  }
  done_ = !it.Valid() || it.record().key >= end_key_;
  chunk.logical_bytes =
      static_cast<uint64_t>(chunk.rows.size()) *
      source_->config().layout.record_bytes;
  bytes_produced_ += chunk.logical_bytes;
  return chunk;
}

}  // namespace slacker::backup
