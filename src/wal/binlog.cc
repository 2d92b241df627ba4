#include "src/wal/binlog.h"

#include <algorithm>

namespace slacker::wal {

Status Binlog::Append(const LogRecord& record, uint64_t row_image_bytes) {
  if (record.lsn <= last_lsn_) {
    return Status::InvalidArgument("binlog LSN not increasing");
  }
  records_.push_back(record);
  const uint64_t bytes = record.EncodedSize() + row_image_bytes;
  record_bytes_.push_back(bytes);
  total_bytes_ += bytes;
  last_lsn_ = record.lsn;
  return Status::Ok();
}

namespace {

struct LsnLess {
  bool operator()(const LogRecord& r, storage::Lsn lsn) const {
    return r.lsn < lsn;
  }
  bool operator()(storage::Lsn lsn, const LogRecord& r) const {
    return lsn < r.lsn;
  }
};

}  // namespace

void Binlog::ReadRange(storage::Lsn from, storage::Lsn to,
                       std::vector<LogRecord>* out) const {
  out->clear();
  if (from > to) return;
  auto begin = std::lower_bound(records_.begin(), records_.end(), from,
                                LsnLess{});
  for (auto it = begin; it != records_.end() && it->lsn <= to; ++it) {
    out->push_back(*it);
  }
}

void Binlog::ReadRange(storage::Lsn from, storage::Lsn to,
                       std::vector<LogRecord>* out,
                       std::vector<uint64_t>* out_bytes) const {
  out->clear();
  out_bytes->clear();
  if (from > to) return;
  auto begin = std::lower_bound(records_.begin(), records_.end(), from,
                                LsnLess{});
  size_t idx = static_cast<size_t>(begin - records_.begin());
  for (auto it = begin; it != records_.end() && it->lsn <= to; ++it, ++idx) {
    out->push_back(*it);
    out_bytes->push_back(record_bytes_[idx]);
  }
}

uint64_t Binlog::BytesInRange(storage::Lsn from, storage::Lsn to) const {
  if (from > to || records_.empty()) return 0;
  auto begin = std::lower_bound(records_.begin(), records_.end(), from,
                                LsnLess{});
  uint64_t bytes = 0;
  size_t idx = static_cast<size_t>(begin - records_.begin());
  for (auto it = begin; it != records_.end() && it->lsn <= to; ++it, ++idx) {
    bytes += record_bytes_[idx];
  }
  return bytes;
}

}  // namespace slacker::wal
