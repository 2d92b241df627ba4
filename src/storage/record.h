#ifndef SLACKER_STORAGE_RECORD_H_
#define SLACKER_STORAGE_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/checksum.h"

namespace slacker::storage {

/// Log sequence number; strictly increasing per tenant. LSN 0 means
/// "never written" (initial load).
using Lsn = uint64_t;

/// A row. To keep a 1 GB logical tenant cheap to hold in memory, the
/// row body is represented by a 64-bit content digest rather than the
/// full byte payload; the *logical* size (what migration must copy and
/// what the SLA-relevant I/O costs are charged for) lives in the table
/// schema. MaterializePayload() expands the digest into deterministic
/// bytes when real bytes are needed (wire tests, checksum verification).
struct Record {
  uint64_t key = 0;
  /// LSN of the write that produced this version (0 for initial load).
  Lsn lsn = 0;
  /// Deterministic digest of the row contents.
  uint64_t digest = 0;

  bool operator==(const Record& other) const = default;
};

/// Seed for deterministic row contents, the same in every tenant. The
/// binlog re-derives each row image's digest from it.
inline constexpr uint64_t kValueSeed = 1;

/// Digest for a freshly written row version: a pure function of the
/// key, the writing LSN, and a value seed, so that source and target
/// can independently verify convergence after migration. Inline: a
/// tenant load digests every row it creates.
inline uint64_t RowDigest(uint64_t key, Lsn lsn, uint64_t value_seed) {
  uint64_t digest = 0xcbf29ce484222325ULL;
  digest = HashCombine(digest, key);
  digest = HashCombine(digest, lsn);
  digest = HashCombine(digest, value_seed);
  return digest;
}

/// Expands a record into `logical_size` deterministic bytes.
std::vector<uint8_t> MaterializePayload(const Record& record,  // NOLINT(slacker-test-only): reference — the codec's row payload
                                        size_t logical_size);

}  // namespace slacker::storage

#endif  // SLACKER_STORAGE_RECORD_H_
