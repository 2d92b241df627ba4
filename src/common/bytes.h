#ifndef SLACKER_COMMON_BYTES_H_
#define SLACKER_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace slacker {

/// Bytes PutVarint64 writes for `v`: one per started 7-bit group.
inline size_t VarintLength(uint64_t v) {
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}

// Inline encoders and decoders over raw memory: ByteWriter and
// ByteReader are built on them, and a loop that moves many fields (a
// snapshot chunk's rows) calls them directly, with no call or Status
// per field.

/// Writes `v` as a LEB128 varint at `p`, which must have
/// VarintLength(v) bytes of room; returns the byte after it.
inline uint8_t* EncodeVarint64(uint8_t* p, uint64_t v) {
  for (; v >= 0x80; v >>= 7) *p++ = static_cast<uint8_t>(v) | 0x80;
  *p++ = static_cast<uint8_t>(v);
  return p;
}

/// Writes `v` little-endian at `p`, which must have 8 bytes of room;
/// returns the byte after it.
inline uint8_t* EncodeFixed64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return p + 8;
}

/// Reads a varint from [p, limit) into `*out`; returns the byte after
/// it, or nullptr if the input ends first or the varint runs past ten
/// bytes.
inline const uint8_t* DecodeVarint64(const uint8_t* p, const uint8_t* limit,
                                     uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == limit) return nullptr;
    const uint8_t byte = *p++;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) {
      *out = v;
      return p;
    }
  }
  return nullptr;
}

/// Reads a little-endian u64 from [p, limit) into `*out`; returns the
/// byte after it, or nullptr if fewer than 8 bytes remain.
inline const uint8_t* DecodeFixed64(const uint8_t* p, const uint8_t* limit,
                                    uint64_t* out) {
  if (limit - p < 8) return nullptr;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, p, sizeof(*out));
  } else {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
    *out = v;
  }
  return p + 8;
}

/// Append-only binary encoder: little-endian fixed ints, LEB128
/// varints, and length-prefixed strings. The wal and net modules build
/// their record/message codecs on these primitives (the stand-in for
/// the paper's protocol buffers).
class ByteWriter {
 public:
  /// Capacity for `n` bytes in all, so an encoder that knows its
  /// size up front grows the buffer once.
  void Reserve(size_t n) { buf_.reserve(n); }
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  void PutVarint64(uint64_t v);
  void PutDouble(double v);
  void PutString(const std::string& s);
  void PutBytes(const uint8_t* data, size_t len);
  /// Grows the buffer by `n` bytes and returns where they start, for
  /// the caller to fill through the inline encoders above.
  uint8_t* Extend(size_t n) {
    buf_.resize(buf_.size() + n);
    return buf_.data() + buf_.size() - n;
  }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Matching decoder. All getters return Status so truncated or corrupt
/// input surfaces as kCorruption instead of UB.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  Status GetU8(uint8_t* out);
  Status GetFixed32(uint32_t* out);
  Status GetFixed64(uint64_t* out);
  Status GetVarint64(uint64_t* out);
  Status GetDouble(double* out);
  Status GetString(std::string* out);

  /// Reads the next byte without consuming it. Lets a decoder dispatch
  /// on an extension magic byte before handing the reader to the
  /// extension's own DecodeFrom.
  Status PeekU8(uint8_t* out) const;

  /// Consumes `n` bytes a caller decoded in place (n <= remaining()).
  void Skip(size_t n) { pos_ += n; }

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }
  /// The buffer being read, read-only: a decoder checksums the bytes it
  /// consumed as data() + start .. data() + position().
  const uint8_t* data() const { return data_; }
  bool exhausted() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace slacker

#endif  // SLACKER_COMMON_BYTES_H_
