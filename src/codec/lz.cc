#include "src/codec/lz.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>

#include "src/common/bytes.h"
#include "src/common/invariant.h"

namespace slacker::codec {
namespace {

constexpr size_t kHashBits = 15;
constexpr size_t kHashSize = size_t{1} << kHashBits;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 131;  // kMinMatch + 127.
constexpr size_t kMaxLiteralRun = 128;

/// Little-endian loads, so that hashes do not depend on the host and
/// the lowest set bit of an XOR of two loads is in the first differing
/// byte.
uint32_t LoadLe32(const uint8_t* p) {
  uint32_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap32(word);
  }
  return word;
}

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// Fibonacci hash of a 4-byte prefix; determinism needs only that this
/// is a pure function of the bytes.
uint32_t HashPrefix(uint32_t prefix) {
  return (prefix * 2654435761u) >> (32 - kHashBits);
}

void PutVarint(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

bool GetVarint(const std::vector<uint8_t>& in, size_t* pos, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < in.size() && shift < 64) {
    const uint8_t byte = in[(*pos)++];
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// Length of the common prefix of `a` and `b`, which share their first
/// kMinMatch bytes, capped at `limit`; compares 8 bytes at a time.
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t length = kMinMatch;
  for (; length + 8 <= limit; length += 8) {
    const uint64_t diff = LoadLe64(a + length) ^ LoadLe64(b + length);
    if (diff != 0) {
      return length + static_cast<size_t>(std::countr_zero(diff)) / 8;
    }
  }
  while (length < limit && a[length] == b[length]) ++length;
  return length;
}

/// Hash table of candidate positions, reused across calls on a thread.
/// A slot holds (prefix << 32) | (base + position): the 4-byte prefix
/// at the position, and a stamp. Each call takes a fresh base past
/// every stamp an earlier call wrote, so slots stamped below base are
/// stale and read as empty. The slots are cleared only when base would
/// wrap.
struct MatchTable {
  uint64_t slot[kHashSize];
  uint32_t next_base = 1;

  /// Claims the stamps [base, base + n) for an n-byte input; returns
  /// base. Zero is never a valid stamp, so a cleared table is empty.
  uint32_t Claim(size_t n) {
    SLACKER_CHECK(n < UINT32_MAX - 1, "lz input of " + std::to_string(n) +
                                          " bytes exceeds 32-bit positions");
    if (n + 1 > UINT32_MAX - next_base) {
      std::fill(std::begin(slot), std::end(slot), uint64_t{0});
      next_base = 1;
    }
    const uint32_t base = next_base;
    next_base = base + static_cast<uint32_t>(n) + 1;
    return base;
  }
};

MatchTable& ThreadMatchTable() {
  // On the heap so a thread does not carry a 256 KiB TLS block; never
  // freed, as it holds nothing but memory. Value-initialised: all
  // slots start empty.
  thread_local MatchTable* table = new MatchTable();
  return *table;
}

/// The greedy single-candidate matcher shared by LzCompress and
/// LzCompressedSize. It reports the token stream to `sink` as
/// Literals(from, to) and Match(length, distance) calls, in order.
///
/// A hit is decided from the slot alone. A live stamp (>= base) was
/// written by this call at the earlier position stamp - base, and the
/// input is const, so the slot's tag is exactly the prefix the input
/// holds there; comparing tags is comparing prefixes, without loading
/// the candidate's bytes.
template <typename Sink>
void RunMatcher(const uint8_t* input, size_t n, Sink& sink) {
  if (n == 0) return;
  MatchTable& table = ThreadMatchTable();
  const uint32_t base = table.Claim(n);
  size_t literal_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= n) {
    const uint32_t prefix = LoadLe32(input + i);
    uint64_t& slot = table.slot[HashPrefix(prefix)];
    const uint64_t entry = slot;
    slot = (uint64_t{prefix} << 32) | (base + static_cast<uint32_t>(i));
    const uint32_t stamp = static_cast<uint32_t>(entry);
    const bool hit = (stamp >= base) &
                     (static_cast<uint32_t>(entry >> 32) == prefix);
    if (hit) {
      const size_t candidate = stamp - base;
      const size_t length = MatchLength(input + candidate, input + i,
                                        std::min(kMaxMatch, n - i));
      sink.Literals(literal_start, i);
      sink.Match(length, i - candidate);
      i += length;
      literal_start = i;
    } else {
      ++i;
    }
  }
  sink.Literals(literal_start, n);
}

/// Writes the token stream.
struct TokenSink {
  const uint8_t* input;
  std::vector<uint8_t>* out;

  void Literals(size_t from, size_t to) {
    while (from < to) {
      const size_t run = std::min(kMaxLiteralRun, to - from);
      out->push_back(static_cast<uint8_t>(run - 1));
      out->insert(out->end(), input + from, input + from + run);
      from += run;
    }
  }
  void Match(size_t length, size_t distance) {
    out->push_back(static_cast<uint8_t>(0x80 | (length - kMinMatch)));
    PutVarint(out, distance);
  }
};

/// Counts the token stream's bytes without writing it.
struct SizeSink {
  size_t size = 0;

  void Literals(size_t from, size_t to) {
    const size_t run = to - from;
    size += run + (run + kMaxLiteralRun - 1) / kMaxLiteralRun;
  }
  void Match(size_t /*length*/, size_t distance) {
    size += 1 + VarintLength(distance);
  }
};

}  // namespace

std::vector<uint8_t> LzCompress(const std::vector<uint8_t>& input) {
  std::vector<uint8_t> out;
  if (input.empty()) return out;
  out.reserve(input.size() / 2 + 16);
  TokenSink sink{input.data(), &out};
  RunMatcher(input.data(), input.size(), sink);
  return out;
}

size_t LzCompressedSize(const uint8_t* input, size_t n) {
  SizeSink sink;
  RunMatcher(input, n, sink);
  return sink.size;
}

Status LzDecompress(const std::vector<uint8_t>& compressed,
                    size_t expected_size, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(expected_size);
  size_t pos = 0;
  while (pos < compressed.size()) {
    const uint8_t op = compressed[pos++];
    if (op < 0x80) {
      const size_t run = static_cast<size_t>(op) + 1;
      if (pos + run > compressed.size()) {
        return Status::Corruption("lz literal run overruns input");
      }
      if (out->size() + run > expected_size) {
        return Status::Corruption("lz output exceeds expected size");
      }
      out->insert(out->end(), compressed.begin() + static_cast<ptrdiff_t>(pos),
                  compressed.begin() + static_cast<ptrdiff_t>(pos + run));
      pos += run;
    } else {
      uint64_t distance = 0;
      if (!GetVarint(compressed, &pos, &distance)) {
        return Status::Corruption("lz match distance truncated");
      }
      const size_t length = static_cast<size_t>(op & 0x7F) + kMinMatch;
      if (distance == 0 || distance > out->size()) {
        return Status::Corruption("lz match distance out of range");
      }
      if (out->size() + length > expected_size) {
        return Status::Corruption("lz output exceeds expected size");
      }
      // Byte-at-a-time: matches may overlap their own output (RLE).
      size_t src = out->size() - static_cast<size_t>(distance);
      for (size_t k = 0; k < length; ++k) {
        out->push_back((*out)[src + k]);
      }
    }
  }
  if (out->size() != expected_size) {
    return Status::Corruption("lz output shorter than expected size");
  }
  return Status::Ok();
}

}  // namespace slacker::codec
