#include "src/common/bytes.h"

#include <cstring>

namespace slacker {

void ByteWriter::PutFixed32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
}

void ByteWriter::PutFixed64(uint64_t v) { EncodeFixed64(Extend(8), v); }

void ByteWriter::PutVarint64(uint64_t v) {
  EncodeVarint64(Extend(VarintLength(v)), v);
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
  if (DecodeFixed64(data_ + pos_, data_ + len_, out) == nullptr) {
    return Status::Corruption("truncated fixed64");
  }
  pos_ += 8;
  return Status::Ok();
}

Status ByteReader::GetVarint64(uint64_t* out) {
  const uint8_t* next = DecodeVarint64(data_ + pos_, data_ + len_, out);
  if (next == nullptr) {
    return Status::Corruption("truncated or overlong varint");
  }
  pos_ = static_cast<size_t>(next - data_);
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
