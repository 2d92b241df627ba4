#include "src/codec/chunk_codec.h"

#include <utility>

#include "src/codec/delta.h"
#include "src/codec/lz.h"
#include "src/codec/payload.h"

namespace slacker::codec {
namespace {

EncodedChunk RawChunk(const std::vector<storage::Record>& rows,
                      uint64_t logical_bytes) {
  EncodedChunk out;
  out.frame.codec = Codec::kRaw;
  out.frame.logical_bytes = logical_bytes;
  out.frame.encoded_bytes = logical_bytes;
  out.rows = rows;
  return out;
}

}  // namespace

EncodedChunk EncodeSnapshotChunk(
    const std::vector<storage::Record>& rows, uint64_t logical_bytes,
    Codec requested, const CodecConfig& config, uint64_t record_bytes,
    const std::vector<storage::Record>* base_rows) {
  switch (requested) {
    case Codec::kRaw:
      return RawChunk(rows, logical_bytes);
    case Codec::kLz: {
      const std::vector<uint8_t> payload = MaterializeChunkPayload(
          rows, record_bytes, config.payload_redundancy);
      const size_t compressed =
          LzCompressedSize(payload.data(), payload.size());
      if (compressed >= payload.size() || compressed >= logical_bytes) {
        return RawChunk(rows, logical_bytes);
      }
      EncodedChunk out;
      out.frame.codec = Codec::kLz;
      out.frame.logical_bytes = logical_bytes;
      out.frame.encoded_bytes = compressed;
      out.frame.payload_crc =
          ChunkPayloadCrc(rows, record_bytes, config.payload_redundancy);
      out.frame.payload_redundancy = config.payload_redundancy;
      out.rows = rows;
      out.cpu_seconds =
          static_cast<double>(payload.size()) / kCompressBytesPerSec;
      return out;
    }
    case Codec::kDelta: {
      if (base_rows == nullptr) return RawChunk(rows, logical_bytes);
      RowDelta delta = ComputeRowDelta(*base_rows, rows);
      const uint64_t wire_bytes =
          delta.changed.size() * record_bytes + delta.removed_keys.size() * 8;
      if (wire_bytes >= logical_bytes) {
        return RawChunk(rows, logical_bytes);
      }
      EncodedChunk out;
      out.frame.codec = Codec::kDelta;
      out.frame.logical_bytes = logical_bytes;
      out.frame.encoded_bytes = wire_bytes;
      out.frame.base_crc = ChunkCrc(*base_rows);
      out.frame.payload_redundancy = config.payload_redundancy;
      out.rows = std::move(delta.changed);
      out.removed_keys = std::move(delta.removed_keys);
      out.cpu_seconds =
          static_cast<double>(logical_bytes) / kDeltaBytesPerSec;
      return out;
    }
  }
  return RawChunk(rows, logical_bytes);
}

bool VerifyPayloadCrc(const FrameHeader& frame,
                      const std::vector<storage::Record>& rows,
                      uint64_t record_bytes) {
  if (frame.codec != Codec::kLz) return true;
  return ChunkPayloadCrc(rows, record_bytes, frame.payload_redundancy) ==
         frame.payload_crc;
}

double DecodeCpuSeconds(const FrameHeader& frame) {
  switch (frame.codec) {
    case Codec::kRaw:
      return 0.0;
    case Codec::kLz:
      return static_cast<double>(frame.logical_bytes) / kDecompressBytesPerSec;
    case Codec::kDelta:
      return static_cast<double>(frame.logical_bytes) / kDeltaBytesPerSec;
  }
  return 0.0;
}

}  // namespace slacker::codec
