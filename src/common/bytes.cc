#include "src/common/bytes.h"

#include <cstring>

namespace slacker {

void ByteWriter::PutFixed32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
}

void ByteWriter::PutFixed64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
}

void ByteWriter::PutVarint64(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(bits);
}

void ByteWriter::PutString(const std::string& s) {
  PutVarint64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::PutBytes(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

Status ByteReader::GetU8(uint8_t* out) {
  if (remaining() < 1) return Status::Corruption("truncated u8");
  *out = data_[pos_++];
  return Status::Ok();
}

Status ByteReader::GetFixed32(uint32_t* out) {
  if (remaining() < 4) return Status::Corruption("truncated fixed32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
  *out = v;
  return Status::Ok();
}

Status ByteReader::GetFixed64(uint64_t* out) {
  if (remaining() < 8) return Status::Corruption("truncated fixed64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
  *out = v;
  return Status::Ok();
}

Status ByteReader::GetVarint64(uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (remaining() < 1) return Status::Corruption("truncated varint");
    if (shift >= 64) return Status::Corruption("varint too long");
    const uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *out = v;
  return Status::Ok();
}

Status ByteReader::GetDouble(double* out) {
  uint64_t bits;
  SLACKER_RETURN_IF_ERROR(GetFixed64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::Ok();
}

Status ByteReader::GetString(std::string* out) {
  uint64_t len;
  SLACKER_RETURN_IF_ERROR(GetVarint64(&len));
  if (remaining() < len) return Status::Corruption("truncated string");
  out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::Ok();
}

Status ByteReader::PeekU8(uint8_t* out) const {
  if (remaining() < 1) return Status::Corruption("truncated u8");
  *out = data_[pos_];
  return Status::Ok();
}

}  // namespace slacker
