#include "src/common/checksum.h"

#include <array>
#include <cstring>

namespace slacker {
namespace {

using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

/// Slice-by-8 tables: tables[0] is the bytewise table, and tables[k][b]
/// is the CRC of byte b followed by k zero bytes, so eight table lookups
/// advance the CRC over eight input bytes at once.
constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  constexpr uint32_t kPoly = 0x82f63b78;  // Castagnoli, reflected.
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__)
/// Whether the CPU has the crc32 instruction. A Crc32c call from
/// another file's static initializer may run before this is set; it
/// sees false and takes the portable path, which returns the same CRC.
const bool kHardwareCrc = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}();
#endif

}  // namespace

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const uint8_t* data,
                                                          size_t len,
                                                          uint32_t seed) {
  uint64_t crc = ~seed;
  for (; len >= 8; data += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = __builtin_ia32_crc32di(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; ++data, --len) {
    crc32 = __builtin_ia32_crc32qi(crc32, *data);
  }
  return ~crc32;
}
#endif

uint32_t Crc32c(const uint8_t* data, size_t len, uint32_t seed) {
#if defined(__x86_64__)
  if (kHardwareCrc) return Crc32cHardware(data, len, seed);
#endif
  return Crc32cPortable(data, len, seed);
}

uint32_t Crc32cPortable(const uint8_t* data, size_t len, uint32_t seed) {
  const Crc32cTables& t = kCrc32cTables;
  uint32_t crc = ~seed;
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = LoadLe32(data) ^ crc;
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = t[0][(crc ^ *data) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const std::vector<uint8_t>& data, uint32_t seed) {
  return Crc32c(data.data(), data.size(), seed);
}

uint64_t Fnv1a64(const uint8_t* data, size_t len, uint64_t seed) {
  uint64_t hash = seed;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= checksum_internal::kFnvPrime;
  }
  return hash;
}

}  // namespace slacker
