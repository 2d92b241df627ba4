#include "src/storage/packed_rows.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/invariant.h"

namespace slacker::storage {

namespace {

/// Longest encoded row: two 10-byte varints and a fixed64 digest.
constexpr size_t kMaxRowBytes = 28;

}  // namespace

void PackedRows::Append(const Record* rows, size_t count) {
  if (count == 0) return;
  if (count_ == 0) front_key_ = rows[0].key;
  // Encoded a block at a time into the stack, then appended in one go.
  // Locals, not members, carry the previous key: the byte stores could
  // alias a member.
  uint8_t encoded[kBlockRows * kMaxRowBytes];
  bool first = count_ == 0;
  uint64_t prev_key = back_key_;
  for (size_t done = 0; done < count;) {
    const size_t n = std::min(count - done, kBlockRows);
    uint8_t* end = encoded;
    for (const Record* row = rows + done; row != rows + done + n; ++row) {
      SLACKER_CHECK(first || row->key > prev_key,
                    "packed rows must ascend");
      SLACKER_CHECK(row->lsn >> 63 == 0, "packed row LSN too large");
      const bool explicit_digest =
          row->digest != RowDigest(row->key, row->lsn, kValueSeed);
      end = EncodeVarint64(end, row->key - prev_key);
      end = EncodeVarint64(end, row->lsn << 1 | (explicit_digest ? 1 : 0));
      if (explicit_digest) end = EncodeFixed64(end, row->digest);
      prev_key = row->key;
      first = false;
    }
    bytes_.insert(bytes_.end(), encoded, end);
    done += n;
  }
  back_key_ = prev_key;
  count_ += count;
}

size_t PackedRows::DecodeBlock(Cursor* cursor, Record* block) const {
  const size_t n = std::min(kBlockRows, count_ - cursor->row);
  const uint8_t* p = bytes_.data() + cursor->offset;
  const uint8_t* const limit = bytes_.data() + bytes_.size();
  uint64_t key = cursor->prev_key;
  for (size_t i = 0; i < n; ++i) {
    uint64_t gap = 0;
    uint64_t tagged = 0;
    p = DecodeVarint64(p, limit, &gap);
    if (p != nullptr) p = DecodeVarint64(p, limit, &tagged);
    SLACKER_CHECK(p != nullptr, "packed rows truncated");
    key += gap;
    const Lsn lsn = tagged >> 1;
    uint64_t digest = 0;
    if (tagged & 1) {
      p = DecodeFixed64(p, limit, &digest);
      SLACKER_CHECK(p != nullptr, "packed rows truncated");
    } else {
      digest = RowDigest(key, lsn, kValueSeed);
    }
    block[i] = Record{key, lsn, digest};
  }
  cursor->offset = static_cast<size_t>(p - bytes_.data());
  cursor->row += n;
  cursor->prev_key = key;
  return n;
}

}  // namespace slacker::storage
