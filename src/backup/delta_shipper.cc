#include "src/backup/delta_shipper.h"

#include <utility>

namespace slacker::backup {

DeltaShipper::DeltaShipper(const wal::Binlog* source_log,
                           storage::Lsn applied_lsn)
    : source_log_(source_log), applied_lsn_(applied_lsn) {}

void DeltaShipper::RestrictToKeys(uint64_t lo, uint64_t hi) {
  key_filtered_ = true;
  key_lo_ = lo;
  key_hi_ = hi;
}

uint64_t DeltaShipper::PendingBytes() const {
  const storage::Lsn from = applied_lsn_ + 1;
  const storage::Lsn to = source_log_->last_lsn();
  if (!key_filtered_) return source_log_->BytesInRange(from, to);
  // Filtered: the handover trigger compares this against its byte
  // budget, and a hot neighbour range's writes must not keep THIS
  // range's migration from converging.
  return source_log_->BytesInRange(from, to, key_lo_, key_hi_);
}

DeltaRound DeltaShipper::ReadRound() {
  DeltaRound round;
  round.from = applied_lsn_ + 1;
  round.to = source_log_->last_lsn();
  if (round.to < round.from) {
    round.to = applied_lsn_;
    return round;  // Caught up; empty round.
  }
  if (key_filtered_) {
    std::vector<wal::LogRecord> records;
    std::vector<uint64_t> record_bytes;
    source_log_->ReadRange(round.from, round.to, &records, &record_bytes);
    for (size_t i = 0; i < records.size(); ++i) {
      const wal::LogRecord& r = records[i];
      const bool keep = r.type == wal::LogType::kCommit ||
                        (r.key >= key_lo_ && r.key < key_hi_);
      if (!keep) continue;
      round.records.push_back(r);
      round.bytes += record_bytes[i];
    }
  } else {
    source_log_->ReadRange(round.from, round.to, &round.records);
    round.bytes = source_log_->BytesInRange(round.from, round.to);
  }
  ++rounds_shipped_;
  bytes_shipped_ += round.bytes;
  if (rounds_counter_ != nullptr) rounds_counter_->Add();
  if (bytes_counter_ != nullptr) bytes_counter_->Add(round.bytes);
  return round;
}

void DeltaShipper::MarkApplied(storage::Lsn to) {
  if (to > applied_lsn_) applied_lsn_ = to;
}

std::vector<storage::Record> RowImagesFromLog(
    const std::vector<wal::LogRecord>& records) {
  std::vector<storage::Record> rows;
  rows.reserve(records.size());
  for (const wal::LogRecord& r : records) {
    storage::Record row;
    row.key = r.key;
    row.lsn = r.lsn;
    row.digest = r.digest;
    rows.push_back(row);
  }
  return rows;
}

codec::EncodedChunk EncodeRound(const DeltaRound& round,
                                codec::Codec requested,
                                const codec::CodecConfig& config) {
  std::vector<storage::Record> rows = RowImagesFromLog(round.records);
  const uint64_t per_image =
      rows.empty() ? 0 : round.bytes / static_cast<uint64_t>(rows.size());
  return codec::EncodeSnapshotChunk(std::move(rows), round.bytes, requested,
                                    config, per_image);
}

}  // namespace slacker::backup
