#ifndef SLACKER_COMMON_BYTES_H_
#define SLACKER_COMMON_BYTES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace slacker {

/// Bytes PutVarint64 writes for `v`: one per started 7-bit group.
inline size_t VarintLength(uint64_t v) {
  size_t len = 1;
  for (; v >= 0x80; v >>= 7) ++len;
  return len;
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
