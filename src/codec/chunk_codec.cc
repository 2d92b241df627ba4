#include "src/codec/chunk_codec.h"

#include <utility>

#include "src/codec/lz.h"
#include "src/codec/payload.h"

namespace slacker::codec {
namespace {

EncodedChunk RawChunk(std::vector<storage::Record> rows,
                      uint64_t logical_bytes) {
  EncodedChunk out;
  out.frame.codec = Codec::kRaw;
  out.frame.logical_bytes = logical_bytes;
  out.frame.encoded_bytes = logical_bytes;
  out.rows = std::move(rows);
  return out;
}

}  // namespace

EncodedChunk EncodeSnapshotChunk(std::vector<storage::Record> rows,
                                 uint64_t logical_bytes, Codec requested,
                                 const CodecConfig& config,
                                 uint64_t record_bytes) {
  if (requested != Codec::kLz) return RawChunk(std::move(rows), logical_bytes);
  // Reused across chunks, as the LZ match table is: a chunk overwrites
  // every byte, so it need not allocate or zero-fill a fresh buffer.
  thread_local std::vector<uint8_t> payload;
  MaterializeChunkPayload(rows, record_bytes, config.payload_redundancy,
                          &payload);
  const size_t compressed = LzCompressedSize(payload.data(), payload.size());
  if (compressed >= payload.size() || compressed >= logical_bytes) {
    return RawChunk(std::move(rows), logical_bytes);
  }
  EncodedChunk out;
  out.frame.codec = Codec::kLz;
  out.frame.logical_bytes = logical_bytes;
  out.frame.encoded_bytes = compressed;
  out.frame.payload_crc =
      ChunkPayloadCrc(rows, record_bytes, config.payload_redundancy);
  out.frame.payload_redundancy = config.payload_redundancy;
  out.rows = std::move(rows);
  out.cpu_seconds = static_cast<double>(payload.size()) / kCompressBytesPerSec;
  return out;
}

bool VerifyPayloadCrc(const FrameHeader& frame,
                      const std::vector<storage::Record>& rows,
                      uint64_t record_bytes) {
  if (frame.codec != Codec::kLz) return true;
  return ChunkPayloadCrc(rows, record_bytes, frame.payload_redundancy) ==
         frame.payload_crc;
}

double DecodeCpuSeconds(const FrameHeader& frame) {
  if (frame.codec != Codec::kLz) return 0.0;
  return static_cast<double>(frame.logical_bytes) / kDecompressBytesPerSec;
}

}  // namespace slacker::codec
