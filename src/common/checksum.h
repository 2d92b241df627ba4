#ifndef SLACKER_COMMON_CHECKSUM_H_
#define SLACKER_COMMON_CHECKSUM_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace slacker {

/// CRC-32C (Castagnoli). Used to verify that migration produces
/// byte-identical tenant replicas and that wire messages survive
/// framing. Runs Crc32cHardware when the CPU reports SSE4.2 (checked
/// once, at startup) and Crc32cPortable otherwise; both return the
/// same value for every input.
uint32_t Crc32c(const uint8_t* data, size_t len, uint32_t seed = 0);
uint32_t Crc32c(const std::vector<uint8_t>& data, uint32_t seed = 0);

/// Software slice-by-8 CRC-32C: the path of hosts without the crc32
/// instruction, and the reference the hardware path is tested against.
uint32_t Crc32cPortable(const uint8_t* data, size_t len, uint32_t seed = 0);

#if defined(__x86_64__)
/// CRC-32C through the SSE4.2 crc32 instruction, eight bytes at a
/// time. Only callable on a CPU with SSE4.2 (Crc32c checks).
uint32_t Crc32cHardware(const uint8_t* data, size_t len, uint32_t seed = 0);
#endif

/// 64-bit FNV-1a, handy for combining per-record digests into one
/// order-sensitive tenant digest.
uint64_t Fnv1a64(const uint8_t* data, size_t len,  // NOLINT(slacker-test-only): reference — HashCombine
                 uint64_t seed = 0xcbf29ce484222325ULL);

namespace checksum_internal {

inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// kFnvPrimePowers[k] is kFnvPrime^k mod 2^64.
inline constexpr std::array<uint64_t, 9> kFnvPrimePowers = [] {
  std::array<uint64_t, 9> powers{};
  powers[0] = 1;
  for (size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * kFnvPrime;
  }
  return powers;
}();

}  // namespace checksum_internal

/// Mixes a 64-bit value into a running digest (order-sensitive): FNV-1a
/// over the value's 8 little-endian bytes, the same as Fnv1a64 over
/// them. An FNV-1a step over a zero byte is a bare multiply by the
/// prime, so the high zero bytes fold into one multiply by a power of
/// it and only the significant bytes take a step each.
inline uint64_t HashCombine(uint64_t digest, uint64_t value) {
  using checksum_internal::kFnvPrime;
  const int significant = (64 - std::countl_zero(value) + 7) / 8;
  for (int i = 0; i < significant; ++i, value >>= 8) {
    digest = (digest ^ (value & 0xff)) * kFnvPrime;
  }
  return digest * checksum_internal::kFnvPrimePowers[8 - significant];
}

}  // namespace slacker

#endif  // SLACKER_COMMON_CHECKSUM_H_
