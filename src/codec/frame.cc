#include "src/codec/frame.h"

#include <bit>
#include <cstddef>
#include <type_traits>

#include "src/common/checksum.h"

namespace slacker::codec {
namespace {

constexpr uint8_t kFrameMagic = kCodecFrameMagic;
constexpr uint8_t kFrameVersion = 1;

}  // namespace

void FrameHeader::EncodeTo(ByteWriter* writer) const {
  const size_t start = writer->size();
  writer->PutU8(kFrameMagic);
  writer->PutU8(kFrameVersion);
  writer->PutU8(static_cast<uint8_t>(codec));
  writer->PutVarint64(logical_bytes);
  writer->PutVarint64(encoded_bytes);
  writer->PutFixed32(payload_crc);
  writer->PutFixed32(0);  // Reserved.
  writer->PutDouble(payload_redundancy);
  writer->PutFixed32(
      Crc32c(writer->data().data() + start, writer->size() - start));
}

size_t FrameHeader::EncodedSize() const {
  // magic, version, codec; two varints; the payload CRC, the reserved
  // word, the redundancy and the header CRC.
  return 3 + VarintLength(logical_bytes) + VarintLength(encoded_bytes) + 4 +
         4 + 8 + 4;
}

Status FrameHeader::DecodeFrom(ByteReader* reader) {
  uint8_t magic = 0;
  uint8_t version = 0;
  uint8_t codec_byte = 0;
  FrameHeader decoded;
  const size_t start = reader->position();
  SLACKER_RETURN_IF_ERROR(reader->GetU8(&magic));
  if (magic != kFrameMagic) {
    return Status::Corruption("codec frame: bad magic");
  }
  SLACKER_RETURN_IF_ERROR(reader->GetU8(&version));
  if (version != kFrameVersion) {
    return Status::Corruption("codec frame: unsupported version");
  }
  SLACKER_RETURN_IF_ERROR(reader->GetU8(&codec_byte));
  if (codec_byte > static_cast<uint8_t>(Codec::kLz)) {
    return Status::Corruption("codec frame: unknown codec id");
  }
  decoded.codec = static_cast<Codec>(codec_byte);
  SLACKER_RETURN_IF_ERROR(reader->GetVarint64(&decoded.logical_bytes));
  SLACKER_RETURN_IF_ERROR(reader->GetVarint64(&decoded.encoded_bytes));
  SLACKER_RETURN_IF_ERROR(reader->GetFixed32(&decoded.payload_crc));
  uint32_t reserved = 0;
  SLACKER_RETURN_IF_ERROR(reader->GetFixed32(&reserved));
  if (reserved != 0) {
    return Status::Corruption("codec frame: nonzero reserved word");
  }
  SLACKER_RETURN_IF_ERROR(reader->GetDouble(&decoded.payload_redundancy));
  // The CRC covers exactly the bytes just consumed. EncodeTo writes
  // canonical varints, so a header of any other length (an overlong
  // varint) did not come from it.
  const uint32_t body_crc = Crc32c(reader->data() + start,
                                   reader->position() - start);
  uint32_t header_crc = 0;
  SLACKER_RETURN_IF_ERROR(reader->GetFixed32(&header_crc));
  if (body_crc != header_crc ||
      reader->position() - start != decoded.EncodedSize()) {
    return Status::Corruption("codec frame: header crc mismatch");
  }
  *this = decoded;
  return Status::Ok();
}

// A row's three fields are its only bytes, in packing order, so on a
// little-endian host the rows' memory is exactly their packed bytes.
static_assert(sizeof(storage::Record) == 24 &&
              offsetof(storage::Record, key) == 0 &&
              offsetof(storage::Record, lsn) == 8 &&
              offsetof(storage::Record, digest) == 16 &&
              std::has_unique_object_representations_v<storage::Record>);

uint32_t ChunkCrc(const std::vector<storage::Record>& rows) {
  if constexpr (std::endian::native == std::endian::little) {
    return Crc32c(reinterpret_cast<const uint8_t*>(rows.data()),
                  rows.size() * sizeof(storage::Record));
  }
  uint32_t crc = 0;
  uint8_t buf[24];
  for (const storage::Record& row : rows) {
    for (int i = 0; i < 8; ++i) {
      buf[i] = static_cast<uint8_t>(row.key >> (8 * i));
      buf[8 + i] = static_cast<uint8_t>(row.lsn >> (8 * i));
      buf[16 + i] = static_cast<uint8_t>(row.digest >> (8 * i));
    }
    crc = Crc32c(buf, sizeof(buf), crc);
  }
  return crc;
}

}  // namespace slacker::codec
