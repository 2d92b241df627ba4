#ifndef SLACKER_CODEC_CHUNK_CODEC_H_
#define SLACKER_CODEC_CHUNK_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/codec/codec.h"
#include "src/codec/frame.h"
#include "src/storage/record.h"

namespace slacker::codec {

/// One snapshot/delta chunk after encoding: the frame header that ships
/// with it, the rows to put on the wire, and the modeled source-side
/// CPU cost of producing it.
struct EncodedChunk {
  FrameHeader frame;
  std::vector<storage::Record> rows;
  double cpu_seconds = 0.0;
};

/// Encodes one chunk with `requested` codec, moving `rows` into the
/// result. Falls back to kRaw when LZ output would not be smaller than
/// its input. For kLz the real block compressor's matcher runs over the
/// materialized payload to measure encoded_bytes, and payload_crc is
/// ChunkPayloadCrc of the rows.
EncodedChunk EncodeSnapshotChunk(std::vector<storage::Record> rows,
                                 uint64_t logical_bytes, Codec requested,
                                 const CodecConfig& config,
                                 uint64_t record_bytes);

/// Target-side check that an LZ frame's payload CRC matches the payload
/// of the received rows, through ChunkPayloadCrc: the same value as
/// re-materializing the payload and taking its CRC-32C, without doing
/// so. True for non-LZ frames.
bool VerifyPayloadCrc(const FrameHeader& frame,
                      const std::vector<storage::Record>& rows,
                      uint64_t record_bytes);

/// Modeled target-side CPU seconds to decode/verify a frame.
double DecodeCpuSeconds(const FrameHeader& frame);

}  // namespace slacker::codec

#endif  // SLACKER_CODEC_CHUNK_CODEC_H_
