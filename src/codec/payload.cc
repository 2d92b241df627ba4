#include "src/codec/payload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>

#include "src/common/checksum.h"

namespace slacker::codec {
namespace {

// The filler prefix of a payload row. Its length is a function of the
// row shape only, its byte a function of the key only; the writer and
// the CRC tables both take them from here.
size_t FillerLength(size_t logical_size, double redundancy) {
  const double clamped = std::clamp(redundancy, 0.0, 1.0);
  return std::min(logical_size,
                  static_cast<size_t>(std::llround(
                      clamped * static_cast<double>(logical_size))));
}

uint8_t FillerByte(uint64_t key) {
  return static_cast<uint8_t>(key * 0x9E3779B9u >> 24);
}

void StoreLe64(uint8_t* p, uint64_t word) {
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  std::memcpy(p, &word, sizeof(word));
}

/// The xorshift64 states of 8 (or 4) rows, one per 64-bit lane. A
/// value of these types never crosses a function boundary: a vector
/// argument of 32 or 64 bytes is passed differently with and without
/// AVX, so the writer keeps them in always-inlined code.
using U64x8 = uint64_t __attribute__((vector_size(64)));
using U64x4 = uint64_t __attribute__((vector_size(32)));

/// One step of storage::MaterializePayload's xorshift64 stream, in
/// every lane of kVecs vectors.
template <typename Vec, size_t kVecs>
[[gnu::always_inline]] inline void Step(Vec (&state)[kVecs]) {
#pragma GCC unroll 2
  for (size_t v = 0; v < kVecs; ++v) {
    state[v] ^= state[v] << 13;
    state[v] ^= state[v] >> 7;
    state[v] ^= state[v] << 17;
  }
}

/// Writes kVecs * (lanes of Vec) consecutive payload rows of
/// `logical_size` bytes each at `out`; Vec is uint64_t (one lane),
/// U64x4 or U64x8. The rows' xorshift64 chains are independent, so
/// each takes a lane and all are stepped in lockstep, kVecs vectors in
/// flight; each chain still yields 8 bytes per 64-bit store.
template <typename Vec, size_t kVecs>
[[gnu::always_inline]] inline void WriteRows(const storage::Record* rows,
                                             size_t logical_size,
                                             size_t filler_bytes,
                                             uint8_t* out) {
  constexpr size_t kLanes = sizeof(Vec) / sizeof(uint64_t);
  Vec state[kVecs];
  for (size_t v = 0; v < kVecs; ++v) {
    uint64_t seed[kLanes];
    for (size_t k = 0; k < kLanes; ++k) {
      const storage::Record& row = rows[v * kLanes + k];
      std::memset(out + (v * kLanes + k) * logical_size, FillerByte(row.key),
                  filler_bytes);
      seed[k] = row.digest ^ row.key;
    }
    std::memcpy(&state[v], seed, sizeof(Vec));
  }
  const size_t noise_bytes = logical_size - filler_bytes;
  uint8_t* noise = out + filler_bytes;
  size_t i = 0;
  for (; i + 8 <= noise_bytes; i += 8) {
    // Each step shifts the word down a byte and puts its low byte on
    // top, so after eight steps byte b holds step b's low byte.
    Vec word[kVecs] = {};
#pragma GCC unroll 8
    for (size_t b = 0; b < 8; ++b) {
      Step(state);
#pragma GCC unroll 2
      for (size_t v = 0; v < kVecs; ++v) {
        word[v] = (word[v] >> 8) | (state[v] << 56);
      }
    }
    for (size_t v = 0; v < kVecs; ++v) {
      uint64_t lane[kLanes];
      std::memcpy(lane, &word[v], sizeof(Vec));
      for (size_t k = 0; k < kLanes; ++k) {
        StoreLe64(noise + (v * kLanes + k) * logical_size + i, lane[k]);
      }
    }
  }
  for (; i < noise_bytes; ++i) {
    Step(state);
    for (size_t v = 0; v < kVecs; ++v) {
      uint64_t lane[kLanes];
      std::memcpy(lane, &state[v], sizeof(Vec));
      for (size_t k = 0; k < kLanes; ++k) {
        noise[(v * kLanes + k) * logical_size + i] =
            static_cast<uint8_t>(lane[k]);
      }
    }
  }
}

/// The payload writer, inlined into both builds below: 16 rows at a
/// time in two 8-lane vectors, then tails of 8, 4 and 1 rows. Two
/// vectors in flight hide the latency of each xorshift step; the
/// baseline build, with 16-byte registers, runs no faster with one.
[[gnu::always_inline]] inline void WritePayload(
    const std::vector<storage::Record>& rows, uint64_t record_bytes,
    double redundancy, std::vector<uint8_t>* payload) {
  payload->resize(rows.size() * record_bytes);
  if (payload->empty()) return;
  const size_t filler_bytes = FillerLength(record_bytes, redundancy);
  const size_t n = rows.size();
  uint8_t* out = payload->data();
  size_t r = 0;
  for (; r + 16 <= n; r += 16) {
    WriteRows<U64x8, 2>(&rows[r], record_bytes, filler_bytes,
                        out + r * record_bytes);
  }
  if (r + 8 <= n) {
    WriteRows<U64x8, 1>(&rows[r], record_bytes, filler_bytes,
                        out + r * record_bytes);
    r += 8;
  }
  if (r + 4 <= n) {
    WriteRows<U64x4, 1>(&rows[r], record_bytes, filler_bytes,
                        out + r * record_bytes);
    r += 4;
  }
  for (; r < n; ++r) {
    WriteRows<uint64_t, 1>(&rows[r], record_bytes, filler_bytes,
                           out + r * record_bytes);
  }
}

#if defined(__x86_64__)
/// Whether the CPU runs MaterializeChunkPayloadAvx512. A call from
/// another file's static initializer may run before this is set; it
/// sees false and takes the portable build, which writes the same
/// bytes.
const bool kWideWriter = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
}();
#endif

/// The raw CRC-32C register after `len` bytes from register `reg`:
/// Crc32c without its pre- and post-inversion.
uint32_t RawCrc(uint32_t reg, const uint8_t* data, size_t len) {
  return ~Crc32c(data, len, ~reg);
}

/// Byte table of a GF(2)-linear map, from its images of the eight
/// single-bit bytes.
void ExpandByteTable(const uint32_t* basis, uint32_t* table) {
  table[0] = 0;
  for (uint32_t b = 1; b < 256; ++b) {
    table[b] = table[b & (b - 1)] ^ basis[std::countr_zero(b)];
  }
}

/// The raw CRC-32C register update over one payload row of a fixed
/// (logical_size, filler_bytes) shape, split by linearity:
///   reg' = shift(reg) ^ fill[filler byte] ^ noise(digest ^ key),
/// each term a XOR of byte-table lookups (DESIGN §11.1).
struct RowCrcTables {
  size_t logical_size;
  size_t filler_bytes;
  uint32_t shift[4][256];  // Register byte k through the row's length.
  uint32_t fill[256];      // Filler prefix of this byte, then zeros.
  uint32_t noise[8][256];  // Noise from xorshift state byte k.

  RowCrcTables(size_t size, size_t filler)
      : logical_size(size), filler_bytes(filler) {
    std::vector<uint8_t> row(logical_size, 0);
    uint32_t basis[64];
    for (size_t j = 0; j < 32; ++j) {
      basis[j] = RawCrc(uint32_t{1} << j, row.data(), row.size());
    }
    for (size_t k = 0; k < 4; ++k) ExpandByteTable(basis + 8 * k, shift[k]);
    for (size_t j = 0; j < 8; ++j) {
      std::memset(row.data(), 1 << j, filler_bytes);
      basis[j] = RawCrc(0, row.data(), row.size());
    }
    ExpandByteTable(basis, fill);
    // Key 0 has filler byte 0, so this row is the noise alone.
    for (size_t j = 0; j < 64; ++j) {
      const storage::Record unit{0, 0, uint64_t{1} << j};
      WriteRows<uint64_t, 1>(&unit, logical_size, filler_bytes, row.data());
      basis[j] = RawCrc(0, row.data(), row.size());
    }
    for (size_t k = 0; k < 8; ++k) ExpandByteTable(basis + 8 * k, noise[k]);
  }
};

/// This thread's tables for a shape, built on first use. A run sees a
/// handful of shapes; past kMaxShapes the oldest is dropped.
const RowCrcTables& TablesFor(size_t logical_size, size_t filler_bytes) {
  constexpr size_t kMaxShapes = 8;
  thread_local std::vector<std::unique_ptr<RowCrcTables>> cache;
  for (const auto& tables : cache) {
    if (tables->logical_size == logical_size &&
        tables->filler_bytes == filler_bytes) {
      return *tables;
    }
  }
  if (cache.size() == kMaxShapes) cache.erase(cache.begin());
  cache.push_back(std::make_unique<RowCrcTables>(logical_size, filler_bytes));
  return *cache.back();
}

}  // namespace

void MaterializeChunkPayload(const std::vector<storage::Record>& rows,
                             uint64_t record_bytes, double redundancy,
                             std::vector<uint8_t>* payload) {
#if defined(__x86_64__)
  if (kWideWriter) {
    MaterializeChunkPayloadAvx512(rows, record_bytes, redundancy, payload);
    return;
  }
#endif
  MaterializeChunkPayloadPortable(rows, record_bytes, redundancy, payload);
}

void MaterializeChunkPayloadPortable(const std::vector<storage::Record>& rows,
                                     uint64_t record_bytes, double redundancy,
                                     std::vector<uint8_t>* payload) {
  WritePayload(rows, record_bytes, redundancy, payload);
}

#if defined(__x86_64__)
__attribute__((target("avx512f,avx512bw,avx512vl"))) void
MaterializeChunkPayloadAvx512(const std::vector<storage::Record>& rows,
                              uint64_t record_bytes, double redundancy,
                              std::vector<uint8_t>* payload) {
  WritePayload(rows, record_bytes, redundancy, payload);
}
#endif

uint32_t ChunkPayloadCrc(const std::vector<storage::Record>& rows,
                         uint64_t record_bytes, double redundancy) {
  // An empty payload's CRC-32C is 0.
  if (rows.empty() || record_bytes == 0) return 0;
  const RowCrcTables& t =
      TablesFor(record_bytes, FillerLength(record_bytes, redundancy));
  uint32_t reg = 0xFFFFFFFFu;
  for (const storage::Record& row : rows) {
    const uint64_t s = row.digest ^ row.key;
    reg = t.shift[0][reg & 0xff] ^ t.shift[1][(reg >> 8) & 0xff] ^
          t.shift[2][(reg >> 16) & 0xff] ^ t.shift[3][reg >> 24] ^
          t.fill[FillerByte(row.key)] ^ t.noise[0][s & 0xff] ^
          t.noise[1][(s >> 8) & 0xff] ^ t.noise[2][(s >> 16) & 0xff] ^
          t.noise[3][(s >> 24) & 0xff] ^ t.noise[4][(s >> 32) & 0xff] ^
          t.noise[5][(s >> 40) & 0xff] ^ t.noise[6][(s >> 48) & 0xff] ^
          t.noise[7][s >> 56];
  }
  return ~reg;
}

}  // namespace slacker::codec
