#include "src/net/negotiation.h"

#include "src/common/checksum.h"

namespace slacker::net {

uint64_t FeatureMaskForVersion(uint32_t version) {
  if (version <= 1) return 0;
  if (version == 2) return kFeatureLz;
  return kFeatureLz | kFeatureAdaptive;
}

codec::CodecMode NegotiatedCodecMode(codec::CodecMode requested,
                                     uint32_t source_version,
                                     uint64_t source_mask,
                                     uint32_t target_version,
                                     uint64_t target_mask) {
  if (source_version == 0 || target_version == 0) return requested;
  const uint64_t common = source_mask & target_mask;
  const bool lz = (common & kFeatureLz) != 0;
  const bool adaptive = (common & kFeatureAdaptive) != 0;
  switch (requested) {
    case codec::CodecMode::kRaw:
      return codec::CodecMode::kRaw;
    case codec::CodecMode::kLz:
      return lz ? codec::CodecMode::kLz : codec::CodecMode::kRaw;
    case codec::CodecMode::kAdaptive:
      if (lz && adaptive) return codec::CodecMode::kAdaptive;
      if (lz) return codec::CodecMode::kLz;
      return codec::CodecMode::kRaw;
  }
  return codec::CodecMode::kRaw;
}

void NegotiationInfo::EncodeTo(ByteWriter* writer) const {
  const size_t start = writer->size();
  writer->PutU8(kNegotiationMagic);
  writer->PutVarint64(software_version);
  writer->PutVarint64(feature_mask);
  writer->PutFixed32(
      Crc32c(writer->data().data() + start, writer->size() - start));
}

size_t NegotiationInfo::EncodedSize() const {
  return 1 + VarintLength(software_version) + VarintLength(feature_mask) + 4;
}

Status NegotiationInfo::DecodeFrom(ByteReader* reader) {
  const size_t start = reader->position();
  uint8_t magic;
  SLACKER_RETURN_IF_ERROR(reader->GetU8(&magic));
  if (magic != kNegotiationMagic) {
    return Status::Corruption("bad negotiation extension magic");
  }
  uint64_t version64;
  SLACKER_RETURN_IF_ERROR(reader->GetVarint64(&version64));
  if (version64 > UINT32_MAX) {
    return Status::Corruption("negotiation version out of range");
  }
  NegotiationInfo decoded;
  decoded.software_version = static_cast<uint32_t>(version64);
  SLACKER_RETURN_IF_ERROR(reader->GetVarint64(&decoded.feature_mask));
  // The checksum covers exactly the bytes just parsed, which must be
  // EncodeTo's canonical encoding (as in codec::FrameHeader::DecodeFrom).
  const uint32_t body_crc =
      Crc32c(reader->data() + start, reader->position() - start);
  uint32_t crc;
  SLACKER_RETURN_IF_ERROR(reader->GetFixed32(&crc));
  if (body_crc != crc ||
      reader->position() - start != decoded.EncodedSize()) {
    return Status::Corruption("negotiation extension checksum mismatch");
  }
  *this = decoded;
  return Status::Ok();
}

}  // namespace slacker::net
