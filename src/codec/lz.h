#ifndef SLACKER_CODEC_LZ_H_
#define SLACKER_CODEC_LZ_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace slacker::codec {

/// Deterministic LZ77-style block compressor (LZ4 spirit, reduced to
/// what the simulator needs). Greedy single-candidate matching over a
/// fixed-size hash table, pure integer arithmetic — the output depends
/// only on the input bytes, never on host, library version, or hash
/// seed, so compressed sizes are bit-reproducible across runs.
///
/// Token stream format:
///   op byte 0x00..0x7F : literal run; (op + 1) literal bytes follow.
///   op byte 0x80 | x   : match; varint-encoded distance follows,
///                        match length = x + 4 (4..131 bytes).
///
/// The compressor never expands pathologically: worst case is
/// ceil(n / 128) op bytes of overhead. Callers compare the result size
/// against the input and ship raw when compression does not pay.
std::vector<uint8_t> LzCompress(const std::vector<uint8_t>& input);  // NOLINT(slacker-test-only): reference — LzCompressedSize

/// LzCompress(input).size() for the n bytes at `input`, computed by
/// the same matcher without writing the token stream. The migration
/// path ships a modeled frame, so it needs only this size.
size_t LzCompressedSize(const uint8_t* input, size_t n);

/// Decompresses `compressed` into `out` (cleared first). Fails with
/// Corruption if the token stream is malformed or does not decode to
/// exactly `expected_size` bytes.
Status LzDecompress(const std::vector<uint8_t>& compressed,  // NOLINT(slacker-test-only): reference — LzCompressedSize's stream
                    size_t expected_size, std::vector<uint8_t>* out);

}  // namespace slacker::codec

#endif  // SLACKER_CODEC_LZ_H_
