#include "src/net/wire.h"

#include "src/common/bytes.h"
#include "src/common/checksum.h"
#include "src/common/invariant.h"

namespace slacker::net {

std::vector<uint8_t> EncodeFrame(const std::vector<uint8_t>& payload) {
  ByteWriter writer;
  writer.PutFixed32(kFrameMagic);
  writer.PutFixed32(static_cast<uint32_t>(payload.size()));
  writer.PutFixed32(Crc32c(payload));
  writer.PutBytes(payload.data(), payload.size());
  return writer.Release();
}

void SealFrame(std::vector<uint8_t>* frame) {
  SLACKER_CHECK(frame->size() >= kFrameHeaderBytes,
                "frame shorter than its header");
  const uint8_t* payload = frame->data() + kFrameHeaderBytes;
  const size_t length = frame->size() - kFrameHeaderBytes;
  const uint32_t header[3] = {kFrameMagic, static_cast<uint32_t>(length),
                              Crc32c(payload, length)};
  for (size_t f = 0; f < 3; ++f) {
    for (size_t b = 0; b < 4; ++b) {
      (*frame)[4 * f + b] = static_cast<uint8_t>(header[f] >> (8 * b));
    }
  }
}

Status DecodeFrame(const std::vector<uint8_t>& data,
                   std::vector<uint8_t>* out) {
  ByteReader reader(data);
  uint32_t magic, length, crc;
  SLACKER_RETURN_IF_ERROR(reader.GetFixed32(&magic));
  if (magic != kFrameMagic) return Status::Corruption("bad frame magic");
  SLACKER_RETURN_IF_ERROR(reader.GetFixed32(&length));
  SLACKER_RETURN_IF_ERROR(reader.GetFixed32(&crc));
  if (reader.remaining() != length) {
    return Status::Corruption("frame length mismatch");
  }
  out->resize(length);
  SLACKER_RETURN_IF_ERROR(reader.GetBytes(out->data(), length));
  if (Crc32c(*out) != crc) return Status::Corruption("frame checksum");
  return Status::Ok();
}

}  // namespace slacker::net
