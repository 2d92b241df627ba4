#ifndef SLACKER_STORAGE_PACKED_ROWS_H_
#define SLACKER_STORAGE_PACKED_ROWS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/storage/record.h"

namespace slacker::storage {

/// Rows in strictly ascending key order, packed the way the binlog
/// packs its records (DESIGN.md §15.6): a row stores only what cannot
/// be derived. Each row is `varint(key gap)`, `varint(lsn << 1 |
/// explicit)` and, only when its digest is not RowDigest(key, lsn,
/// kValueSeed), a fixed64 digest; the first row's gap is its key. A
/// loaded row takes 2 bytes and an engine-written one a few more,
/// instead of a 24-byte Record, and every row round-trips exactly.
/// Readers decode a block of at most kBlockRows rows at a time, never
/// the whole image.
class PackedRows {
 public:
  /// Rows per decoded block.
  static constexpr size_t kBlockRows = 256;

  /// Appends `count` rows in order. Each key must exceed the one before
  /// it (and back_key()) and each LSN must be below 2^63; anything else
  /// aborts. Split appends write the same bytes as one.
  void Append(const Record* rows, size_t count);
  /// Reserves room for `rows` more rows at 2 bytes each, the fewest a
  /// row can take, so a caller that knows its row count never
  /// over-reserves and a loaded tenant's image fits in one allocation.
  void Reserve(size_t rows) { bytes_.reserve(bytes_.size() + 2 * rows); }
  /// Returns the spare capacity growth left behind, once the caller
  /// knows no more rows come.
  void ShrinkToFit() { bytes_.shrink_to_fit(); }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Smallest and largest key; both 0 when empty.
  uint64_t front_key() const { return front_key_; }
  uint64_t back_key() const { return back_key_; }

  /// Calls `visit(const Record* rows, size_t n)` for consecutive blocks
  /// of at most kBlockRows rows, in key order.
  template <typename Visit>
  void ForEachBlock(Visit visit) const {
    Record block[kBlockRows];
    Cursor cursor;
    while (size_t n = DecodeBlock(&cursor, block)) visit(block, n);
  }

 private:
  /// Where the next DecodeBlock resumes.
  struct Cursor {
    size_t offset = 0;
    size_t row = 0;
    uint64_t prev_key = 0;
  };

  /// Decodes the next rows at `cursor` into `block` (room for
  /// kBlockRows) and advances it; returns how many, 0 at the end.
  size_t DecodeBlock(Cursor* cursor, Record* block) const;

  std::vector<uint8_t> bytes_;
  size_t count_ = 0;
  uint64_t front_key_ = 0;
  uint64_t back_key_ = 0;
};

}  // namespace slacker::storage

#endif  // SLACKER_STORAGE_PACKED_ROWS_H_
