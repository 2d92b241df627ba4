#ifndef SLACKER_CODEC_PAYLOAD_H_
#define SLACKER_CODEC_PAYLOAD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/storage/record.h"

namespace slacker::codec {

/// Concatenated payload of a chunk: `record_bytes` deterministic bytes
/// per row with a controllable compressible fraction. Each row's first
/// F = round(redundancy * record_bytes) bytes are a constant filler
/// byte derived from its key (LZ folds them into a handful of matches),
/// and the remaining record_bytes - F bytes are exactly
/// storage::MaterializePayload(row, record_bytes - F), an
/// incompressible xorshift64 stream. redundancy = 0 degenerates to pure
/// noise; the achievable LZ ratio is ~1 / (1 - redundancy).
///
/// Source and target derive identical bytes from identical rows, which
/// is what lets payload CRCs verify end to end without payload bytes
/// crossing the link.
std::vector<uint8_t> MaterializeChunkPayload(
    const std::vector<storage::Record>& rows, uint64_t record_bytes,
    double redundancy);

/// Crc32c(MaterializeChunkPayload(rows, record_bytes, redundancy)),
/// computed in closed form with 13 table lookups per row and without
/// materializing a byte (DESIGN §11.1). The tables for a shape are
/// built once per thread and cached.
uint32_t ChunkPayloadCrc(const std::vector<storage::Record>& rows,
                         uint64_t record_bytes, double redundancy);

}  // namespace slacker::codec

#endif  // SLACKER_CODEC_PAYLOAD_H_
