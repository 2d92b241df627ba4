#ifndef SLACKER_CODEC_FRAME_H_
#define SLACKER_CODEC_FRAME_H_

#include <cstdint>
#include <vector>

#include "src/codec/codec.h"
#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/storage/record.h"

namespace slacker::codec {

/// First byte of the encoded frame extension. Message decoders peek it
/// to dispatch among trailing extensions (the negotiation extension
/// uses 0xC6).
inline constexpr uint8_t kCodecFrameMagic = 0xC5;

/// Self-describing, checksummed header for one encoded snapshot/delta
/// chunk. Wraps the chunk-level metadata the target needs to decode,
/// verify, and account the chunk: which codec produced it, its logical
/// and wire sizes, and a CRC over the (materialized) payload bytes.
///
/// Wire layout (appended to a net::Message only when codec != kRaw, so
/// the default raw path stays byte-identical to the pre-codec wire):
///
///   magic       u8      0xC5
///   version     u8      1
///   codec       u8      Codec enum value; above kLz is corruption
///   logical     varint  bytes of decoded payload (progress accounting)
///   encoded     varint  bytes actually metered through the throttle
///   payload_crc fixed32 CRC-32C of the full materialized payload
///   reserved    fixed32 always 0; any other value is corruption
///   redundancy  double  payload_redundancy the source materialized with
///   header_crc  fixed32 CRC-32C over all preceding header bytes
///
/// The simulator ships row triples, not payload bytes, so `encoded` is
/// the *modeled* wire size: the source runs the real LZ compressor over
/// the materialized payload to measure it, and the target re-derives
/// the same payload from (rows, redundancy, record_bytes) to verify
/// payload_crc end to end without the bytes ever crossing the link.
struct FrameHeader {
  Codec codec = Codec::kRaw;
  uint64_t logical_bytes = 0;
  uint64_t encoded_bytes = 0;
  uint32_t payload_crc = 0;
  double payload_redundancy = 0.0;

  bool operator==(const FrameHeader& other) const = default;

  void EncodeTo(ByteWriter* writer) const;
  /// Bytes EncodeTo writes, counted without encoding.
  size_t EncodedSize() const;
  Status DecodeFrom(ByteReader* reader);
};

/// CRC-32C over a chunk's packed (key, lsn, digest) triples — the
/// end-to-end integrity check the target uses to NACK corrupt chunks.
/// Packing is little-endian so the CRC is platform-stable: one Crc32c
/// call over the rows' memory on a little-endian host, an explicit
/// packing loop on a big-endian one.
uint32_t ChunkCrc(const std::vector<storage::Record>& rows);

}  // namespace slacker::codec

#endif  // SLACKER_CODEC_FRAME_H_
