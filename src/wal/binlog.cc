#include "src/wal/binlog.h"

#include <algorithm>
#include <string>

#include "src/common/invariant.h"

namespace slacker::wal {

namespace {

bool CarriesImage(LogType type) {
  return type == LogType::kInsert || type == LogType::kUpdate;
}

/// The stored record without its digest: the word is a commit's txn id
/// or a row change's key.
LogRecord Undigested(storage::Lsn lsn, LogType type, uint64_t word) {
  LogRecord record;
  record.lsn = lsn;
  record.type = type;
  if (type == LogType::kCommit) {
    record.txn_id = word;
  } else {
    record.key = word;
  }
  return record;
}

}  // namespace

void Binlog::AppendRow(storage::Lsn lsn, LogType type, uint64_t key) {
  SLACKER_CHECK(type != LogType::kCommit, "a commit is not a row change");
  Push(lsn, type, key);
}

void Binlog::AppendCommit(storage::Lsn lsn, uint64_t txn_id) {
  Push(lsn, LogType::kCommit, txn_id);
}

void Binlog::Push(storage::Lsn lsn, LogType type, uint64_t word) {
  SLACKER_CHECK(lsn > last_lsn_, "binlog LSN not increasing: " +
                                     std::to_string(lsn) + " after " +
                                     std::to_string(last_lsn_));
  if (count_ == 0 || lsn != last_lsn_ + 1) runs_.push_back(Run{lsn, count_});
  const size_t slot = count_ % kChunkRecords;
  if (slot == 0) chunks_.push_back(std::make_unique<Chunk>());
  chunks_.back()->words[slot] = word;
  chunks_.back()->types[slot] = type;
  total_bytes_ += RecordBytes(Undigested(lsn, type, word));
  last_lsn_ = lsn;
  ++count_;
}

uint64_t Binlog::RecordBytes(const LogRecord& record) const {
  // The digest always encodes as 8 bytes, so the size never needs it.
  return record.EncodedSize() +
         (CarriesImage(record.type) ? row_image_bytes_ : 0);
}

size_t Binlog::LowerIndex(storage::Lsn lsn) const {
  // The last run that starts at or before `lsn`.
  auto run = std::upper_bound(
      runs_.begin(), runs_.end(), lsn,
      [](storage::Lsn value, const Run& r) { return value < r.first_lsn; });
  if (run == runs_.begin()) return 0;
  --run;
  const size_t run_end =
      run + 1 == runs_.end() ? count_ : (run + 1)->first_index;
  const uint64_t offset = lsn - run->first_lsn;
  return offset < run_end - run->first_index
             ? run->first_index + static_cast<size_t>(offset)
             : run_end;
}

void Binlog::IndexRange(storage::Lsn from, storage::Lsn to, size_t* begin,
                        size_t* end) const {
  if (from > to) {
    *begin = *end = 0;
    return;
  }
  *begin = LowerIndex(from);
  *end = to >= last_lsn_ ? count_ : LowerIndex(to + 1);
}

template <typename Visit>
void Binlog::ForEach(size_t begin, size_t end, bool with_digest,
                     Visit visit) const {
  if (begin >= end) return;
  // The run holding record `begin`: the last one starting at or before.
  auto run = std::upper_bound(
      runs_.begin(), runs_.end(), begin,
      [](size_t index, const Run& r) { return index < r.first_index; });
  --run;
  for (size_t i = begin; i < end; ++run) {
    const size_t run_end =
        run + 1 == runs_.end() ? end : std::min(end, (run + 1)->first_index);
    for (storage::Lsn lsn = run->first_lsn + (i - run->first_index);
         i < run_end; ++i, ++lsn) {
      const Chunk& chunk = *chunks_[i / kChunkRecords];
      const size_t slot = i % kChunkRecords;
      LogRecord record =
          Undigested(lsn, chunk.types[slot], chunk.words[slot]);
      const uint64_t bytes = RecordBytes(record);
      if (with_digest && CarriesImage(record.type)) {
        record.digest =
            storage::RowDigest(record.key, lsn, storage::kValueSeed);
      }
      visit(record, bytes);
    }
  }
}

void Binlog::ReadRange(storage::Lsn from, storage::Lsn to,
                       std::vector<LogRecord>* out) const {
  out->clear();
  size_t begin = 0;
  size_t end = 0;
  IndexRange(from, to, &begin, &end);
  out->reserve(end - begin);
  ForEach(begin, end, /*with_digest=*/true,
          [out](const LogRecord& record, uint64_t) {
            out->push_back(record);
          });
}

void Binlog::ReadRange(storage::Lsn from, storage::Lsn to,
                       std::vector<LogRecord>* out,
                       std::vector<uint64_t>* out_bytes) const {
  out->clear();
  out_bytes->clear();
  size_t begin = 0;
  size_t end = 0;
  IndexRange(from, to, &begin, &end);
  out->reserve(end - begin);
  out_bytes->reserve(end - begin);
  ForEach(begin, end, /*with_digest=*/true,
          [out, out_bytes](const LogRecord& record, uint64_t bytes) {
            out->push_back(record);
            out_bytes->push_back(bytes);
          });
}

uint64_t Binlog::BytesInRange(storage::Lsn from, storage::Lsn to) const {
  size_t begin = 0;
  size_t end = 0;
  IndexRange(from, to, &begin, &end);
  uint64_t bytes = 0;
  ForEach(begin, end, /*with_digest=*/false,
          [&bytes](const LogRecord&, uint64_t record_bytes) {
            bytes += record_bytes;
          });
  return bytes;
}

uint64_t Binlog::BytesInRange(storage::Lsn from, storage::Lsn to,
                              uint64_t key_lo, uint64_t key_hi) const {
  size_t begin = 0;
  size_t end = 0;
  IndexRange(from, to, &begin, &end);
  uint64_t bytes = 0;
  ForEach(begin, end, /*with_digest=*/false,
          [&bytes, key_lo, key_hi](const LogRecord& record,
                                   uint64_t record_bytes) {
            if (record.type == LogType::kCommit ||
                (record.key >= key_lo && record.key < key_hi)) {
              bytes += record_bytes;
            }
          });
  return bytes;
}

}  // namespace slacker::wal
