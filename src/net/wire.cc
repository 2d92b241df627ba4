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

Status CheckFrame(const std::vector<uint8_t>& data, const uint8_t** payload,
                  size_t* length) {
  ByteReader reader(data);
  uint32_t magic, payload_length, crc;
  SLACKER_RETURN_IF_ERROR(reader.GetFixed32(&magic));
  if (magic != kFrameMagic) return Status::Corruption("bad frame magic");
  SLACKER_RETURN_IF_ERROR(reader.GetFixed32(&payload_length));
  SLACKER_RETURN_IF_ERROR(reader.GetFixed32(&crc));
  if (reader.remaining() != payload_length) {
    return Status::Corruption("frame length mismatch");
  }
  const uint8_t* start = data.data() + reader.position();
  if (Crc32c(start, payload_length) != crc) {
    return Status::Corruption("frame checksum");
  }
  *payload = start;
  *length = payload_length;
  return Status::Ok();
}

}  // namespace slacker::net
