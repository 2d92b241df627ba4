#include "src/wal/log_record.h"

namespace slacker::wal {

void LogRecord::EncodeTo(ByteWriter* writer) const {
  writer->PutU8(static_cast<uint8_t>(type));
  writer->PutVarint64(lsn);
  writer->PutVarint64(txn_id);
  writer->PutVarint64(key);
  if (type == LogType::kUpdate) writer->PutFixed64(digest);
}

size_t LogRecord::EncodedSize() const {
  // Counted, not encoded: Binlog::Append sizes every record, and
  // encoding into a scratch buffer would allocate on every write.
  return 1 + VarintLength(lsn) + VarintLength(txn_id) + VarintLength(key) +
         (type == LogType::kUpdate ? 8 : 0);
}

Status LogRecord::DecodeFrom(ByteReader* reader, LogRecord* out) {
  uint8_t type_byte;
  SLACKER_RETURN_IF_ERROR(reader->GetU8(&type_byte));
  if (type_byte != static_cast<uint8_t>(LogType::kUpdate) &&
      type_byte != static_cast<uint8_t>(LogType::kCommit)) {
    return Status::Corruption("bad log record type");
  }
  out->type = static_cast<LogType>(type_byte);
  SLACKER_RETURN_IF_ERROR(reader->GetVarint64(&out->lsn));
  SLACKER_RETURN_IF_ERROR(reader->GetVarint64(&out->txn_id));
  SLACKER_RETURN_IF_ERROR(reader->GetVarint64(&out->key));
  out->digest = 0;
  if (out->type == LogType::kUpdate) {
    SLACKER_RETURN_IF_ERROR(reader->GetFixed64(&out->digest));
  }
  return Status::Ok();
}

}  // namespace slacker::wal
