#ifndef SLACKER_COMMON_CHECKSUM_H_
#define SLACKER_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slacker {

/// CRC-32C (Castagnoli), software slice-by-8 implementation. Used to verify
/// that migration produces byte-identical tenant replicas and that wire
/// messages survive framing.
uint32_t Crc32c(const uint8_t* data, size_t len, uint32_t seed = 0);
uint32_t Crc32c(const std::vector<uint8_t>& data, uint32_t seed = 0);

/// 64-bit FNV-1a, handy for combining per-record digests into one
/// order-sensitive tenant digest.
uint64_t Fnv1a64(const uint8_t* data, size_t len,
                 uint64_t seed = 0xcbf29ce484222325ULL);

/// Mixes a 64-bit value into a running digest (order-sensitive).
uint64_t HashCombine(uint64_t digest, uint64_t value);

}  // namespace slacker

#endif  // SLACKER_COMMON_CHECKSUM_H_
