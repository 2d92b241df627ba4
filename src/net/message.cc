#include "src/net/message.h"

#include "src/common/bytes.h"
#include "src/common/invariant.h"
#include "src/net/wire.h"
#include "src/storage/record.h"

namespace slacker::net {

namespace {

/// The value-seed slot of the wire config. Only a migration request
/// carries a tenant config, and every tenant's rows use
/// storage::kValueSeed; other messages leave the slot 0 like the rest
/// of their empty config.
uint64_t WireValueSeed(MessageType type) {
  return type == MessageType::kMigrateRequest ? storage::kValueSeed : 0;
}

/// Bytes of the rows' encoding: per row a varint key, a varint LSN and
/// a fixed64 digest.
size_t EncodedRowsSize(const std::vector<storage::Record>& rows) {
  size_t size = 0;
  for (const storage::Record& r : rows) {
    size += VarintLength(r.key) + VarintLength(r.lsn) + 8;
  }
  return size;
}

// The fewest bytes each repeated entry encodes to, so that a count
// the bytes left cannot hold is Corruption before anything is sized
// by it. A row: two one-byte varints and the digest. A log record: its
// type byte and three one-byte varints.
constexpr size_t kMinRowBytes = 10;
constexpr size_t kMinLogRecordBytes = 4;

/// Bytes of EncodeMessage's payload, counted without encoding, so the
/// frame is reserved once. `rows_bytes` is EncodedRowsSize(rows).
size_t EncodedPayloadSize(const Message& message, size_t rows_bytes) {
  const TenantWireConfig& config = message.config;
  size_t size = 1 + VarintLength(message.tenant_id) +
                VarintLength(message.target_server) +
                VarintLength(message.lsn) + VarintLength(message.chunk_seq) +
                VarintLength(message.payload_bytes) + 8 + 4 + 1 +
                VarintLength(message.resume_key) +
                VarintLength(message.error.size()) + message.error.size() +
                VarintLength(config.page_bytes) +
                VarintLength(config.record_bytes) +
                VarintLength(config.record_count) +
                VarintLength(config.buffer_pool_bytes) +
                VarintLength(WireValueSeed(message.type)) + 8 + 8;
  size += VarintLength(message.rows.size()) + rows_bytes;
  size += VarintLength(message.log_records.size());
  for (const wal::LogRecord& r : message.log_records) {
    size += r.EncodedSize();
  }
  if (message.frame.codec != codec::Codec::kRaw) {
    size += message.frame.EncodedSize() + 1;  // The reserved count.
  }
  if (message.negotiation.software_version != 0) {
    size += message.negotiation.EncodedSize();
  }
  if (message.partial_range()) {
    size += 1 + VarintLength(message.range_lo) +
            VarintLength(message.range_hi);
  }
  return size;
}

/// Reads a row count and the rows after it. Its own function so that
/// the inline decoders stay inlined in the loop.
Status DecodeRows(ByteReader* reader, std::vector<storage::Record>* rows) {
  uint64_t row_count;
  SLACKER_RETURN_IF_ERROR(reader->GetVarint64(&row_count));
  if (row_count > reader->remaining() / kMinRowBytes) {
    return Status::Corruption("truncated rows");
  }
  rows->resize(row_count);
  const uint8_t* start = reader->data() + reader->position();
  const uint8_t* limit = start + reader->remaining();
  const uint8_t* p = start;
  for (storage::Record& r : *rows) {
    p = DecodeVarint64(p, limit, &r.key);
    if (p != nullptr) p = DecodeVarint64(p, limit, &r.lsn);
    if (p != nullptr) p = DecodeFixed64(p, limit, &r.digest);
    if (p == nullptr) return Status::Corruption("truncated row");
  }
  reader->Skip(static_cast<size_t>(p - start));
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> EncodeMessage(const Message& message) {
  // One buffer: the payload is written after room for the frame
  // header, which SealFrame fills in place.
  const size_t rows_bytes = EncodedRowsSize(message.rows);
  const size_t frame_bytes =
      kFrameHeaderBytes + EncodedPayloadSize(message, rows_bytes);
  ByteWriter writer;
  writer.Reserve(frame_bytes);
  const uint8_t header_room[kFrameHeaderBytes] = {};
  writer.PutBytes(header_room, kFrameHeaderBytes);
  writer.PutU8(static_cast<uint8_t>(message.type));
  writer.PutVarint64(message.tenant_id);
  writer.PutVarint64(message.target_server);
  writer.PutVarint64(message.lsn);
  writer.PutVarint64(message.chunk_seq);
  writer.PutVarint64(message.payload_bytes);
  writer.PutFixed64(message.digest);
  writer.PutFixed32(message.chunk_crc);
  writer.PutU8(message.resume ? 1 : 0);
  writer.PutVarint64(message.resume_key);
  writer.PutString(message.error);
  writer.PutVarint64(message.config.page_bytes);
  writer.PutVarint64(message.config.record_bytes);
  writer.PutVarint64(message.config.record_count);
  writer.PutVarint64(message.config.buffer_pool_bytes);
  writer.PutVarint64(WireValueSeed(message.type));
  writer.PutDouble(message.config.cpu_per_op);
  writer.PutDouble(message.config.commit_latency);
  writer.PutVarint64(message.rows.size());
  uint8_t* row_bytes = writer.Extend(rows_bytes);
  for (const storage::Record& r : message.rows) {
    row_bytes = EncodeVarint64(row_bytes, r.key);
    row_bytes = EncodeVarint64(row_bytes, r.lsn);
    row_bytes = EncodeFixed64(row_bytes, r.digest);
  }
  writer.PutVarint64(message.log_records.size());
  for (const wal::LogRecord& r : message.log_records) {
    r.EncodeTo(&writer);
  }
  // Extensions: only non-default values append one, so every message
  // the legacy raw pipeline produces is byte-identical to the
  // pre-codec format (golden trace digests depend on wire sizes).
  // Decoders dispatch on the leading magic byte of each extension.
  if (message.frame.codec != codec::Codec::kRaw) {
    message.frame.EncodeTo(&writer);
    writer.PutVarint64(0);  // Reserved count; always 0.
  }
  if (message.negotiation.software_version != 0) {
    message.negotiation.EncodeTo(&writer);
  }
  if (message.partial_range()) {
    writer.PutU8(kRangeScopeMagic);
    writer.PutVarint64(message.range_lo);
    writer.PutVarint64(message.range_hi);
  }
  std::vector<uint8_t> frame = writer.Release();
  SLACKER_DCHECK(frame.size() == frame_bytes,
                 "EncodedPayloadSize disagrees with the encoding");
  SealFrame(&frame);
  return frame;
}

Status DecodeMessage(const std::vector<uint8_t>& frame, Message* out) {
  // Parsed where it lies in the frame: no payload copy.
  const uint8_t* payload = nullptr;
  size_t length = 0;
  SLACKER_RETURN_IF_ERROR(CheckFrame(frame, &payload, &length));
  ByteReader reader(payload, length);
  uint8_t type;
  SLACKER_RETURN_IF_ERROR(reader.GetU8(&type));
  if (type < 1 || type > 14) return Status::Corruption("bad message type");
  out->type = static_cast<MessageType>(type);
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->tenant_id));
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->target_server));
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->lsn));
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->chunk_seq));
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->payload_bytes));
  SLACKER_RETURN_IF_ERROR(reader.GetFixed64(&out->digest));
  SLACKER_RETURN_IF_ERROR(reader.GetFixed32(&out->chunk_crc));
  uint8_t resume;
  SLACKER_RETURN_IF_ERROR(reader.GetU8(&resume));
  out->resume = resume != 0;
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->resume_key));
  SLACKER_RETURN_IF_ERROR(reader.GetString(&out->error));
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->config.page_bytes));
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->config.record_bytes));
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->config.record_count));
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->config.buffer_pool_bytes));
  uint64_t value_seed;
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&value_seed));
  if (value_seed != WireValueSeed(out->type)) {
    return Status::Corruption("bad value seed");
  }
  SLACKER_RETURN_IF_ERROR(reader.GetDouble(&out->config.cpu_per_op));
  SLACKER_RETURN_IF_ERROR(reader.GetDouble(&out->config.commit_latency));
  SLACKER_RETURN_IF_ERROR(DecodeRows(&reader, &out->rows));
  uint64_t log_count;
  SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&log_count));
  if (log_count > reader.remaining() / kMinLogRecordBytes) {
    return Status::Corruption("truncated log records");
  }
  out->log_records.clear();
  out->log_records.reserve(log_count);
  for (uint64_t i = 0; i < log_count; ++i) {
    wal::LogRecord r;
    SLACKER_RETURN_IF_ERROR(wal::LogRecord::DecodeFrom(&reader, &r));
    out->log_records.push_back(r);
  }
  out->frame = codec::FrameHeader();
  out->negotiation = NegotiationInfo();
  out->range_lo = 0;
  out->range_hi = UINT64_MAX;
  bool saw_codec_ext = false;
  bool saw_negotiation_ext = false;
  bool saw_range_ext = false;
  while (!reader.exhausted()) {
    uint8_t magic;
    SLACKER_RETURN_IF_ERROR(reader.PeekU8(&magic));
    if (magic == codec::kCodecFrameMagic) {
      if (saw_codec_ext) {
        return Status::Corruption("duplicate codec extension");
      }
      saw_codec_ext = true;
      SLACKER_RETURN_IF_ERROR(out->frame.DecodeFrom(&reader));
      if (out->frame.codec == codec::Codec::kRaw) {
        // A raw frame is never encoded; its presence means corruption.
        return Status::Corruption("unexpected raw codec extension");
      }
      uint64_t reserved_count;
      SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&reserved_count));
      if (reserved_count != 0) {
        return Status::Corruption("nonzero reserved count in codec extension");
      }
    } else if (magic == kNegotiationMagic) {
      if (saw_negotiation_ext) {
        return Status::Corruption("duplicate negotiation extension");
      }
      saw_negotiation_ext = true;
      SLACKER_RETURN_IF_ERROR(out->negotiation.DecodeFrom(&reader));
      if (out->negotiation.software_version == 0) {
        // Version 0 is never encoded; its presence means corruption.
        return Status::Corruption("unexpected legacy negotiation extension");
      }
    } else if (magic == kRangeScopeMagic) {
      if (saw_range_ext) {
        return Status::Corruption("duplicate range-scope extension");
      }
      saw_range_ext = true;
      uint8_t consumed;
      SLACKER_RETURN_IF_ERROR(reader.GetU8(&consumed));
      SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->range_lo));
      SLACKER_RETURN_IF_ERROR(reader.GetVarint64(&out->range_hi));
      if (!out->partial_range() || out->range_lo >= out->range_hi) {
        // The full range is never encoded and an empty one is never
        // migrated; either means corruption.
        return Status::Corruption("bad range-scope extension");
      }
    } else {
      return Status::Corruption("trailing bytes in message");
    }
  }
  return Status::Ok();
}

}  // namespace slacker::net
