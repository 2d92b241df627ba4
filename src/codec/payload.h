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
///
/// The bytes go to `payload`, resized to rows.size() * record_bytes. A
/// caller that keeps the vector across chunks of one size neither
/// allocates nor zero-fills it again. The writer steps
/// the xorshift64 chains of 16 rows in lockstep, one per lane of two
/// 8-lane vectors, then tails of 8, 4 and 1 rows. It runs
/// MaterializeChunkPayloadAvx512 on a CPU with AVX-512 F, BW and VL
/// (checked once, at startup) and MaterializeChunkPayloadPortable
/// otherwise; both write the same bytes.
void MaterializeChunkPayload(const std::vector<storage::Record>& rows,
                             uint64_t record_bytes, double redundancy,
                             std::vector<uint8_t>* payload);

/// The writer built for the baseline instruction set: the path of
/// hosts without AVX-512, and the reference the wide build is tested
/// against.
void MaterializeChunkPayloadPortable(const std::vector<storage::Record>& rows,
                                     uint64_t record_bytes, double redundancy,
                                     std::vector<uint8_t>* payload);

#if defined(__x86_64__)
/// The same source built for AVX-512 F/BW/VL, where a vector holds all
/// 8 lanes. Only callable on a CPU with those extensions
/// (MaterializeChunkPayload checks).
void MaterializeChunkPayloadAvx512(const std::vector<storage::Record>& rows,
                                   uint64_t record_bytes, double redundancy,
                                   std::vector<uint8_t>* payload);
#endif

/// Crc32c of MaterializeChunkPayload(rows, record_bytes, redundancy),
/// computed in closed form with 13 table lookups per row and without
/// materializing a byte (DESIGN §11.1). The tables for a shape are
/// built once per thread and cached.
uint32_t ChunkPayloadCrc(const std::vector<storage::Record>& rows,
                         uint64_t record_bytes, double redundancy);

}  // namespace slacker::codec

#endif  // SLACKER_CODEC_PAYLOAD_H_
