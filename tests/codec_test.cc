// Tests for the src/codec subsystem: the deterministic LZ block
// compressor and its size-only pass, the payload writer and its
// closed-form CRC (each held to the byte-at-a-time reference kernels
// below), the checksummed frame header, the adaptive selector,
// go-back-N under every codec (a full migration that loses or corrupts
// a chunk, NACKs, rewinds and resends raw or LZ frames), and pinned
// fingerprints of the raw and adaptive migration streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/codec/chunk_codec.h"
#include "src/codec/frame.h"
#include "src/codec/lz.h"
#include "src/codec/payload.h"
#include "src/codec/selector.h"
#include "src/common/bytes.h"
#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/storage/record.h"
#include "src/net/channel.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/csv_export.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/slacker/cluster.h"
#include "src/slacker/invariant_auditor.h"
#include "src/slacker/metrics.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker::codec {
namespace {

// ----------------------------------------------------- Reference kernels
//
// The straightforward byte-at-a-time LZ compressor and payload writer
// the optimised kernels must reproduce exactly: a fresh hash table per
// call, bytewise match extension, one vector per row.

std::vector<uint8_t> ReferenceLzCompress(const std::vector<uint8_t>& input) {
  constexpr size_t kHashBits = 15;
  constexpr size_t kMinMatch = 4;
  constexpr size_t kMaxMatch = 131;
  constexpr size_t kMaxLiteralRun = 128;
  std::vector<uint8_t> out;
  const size_t n = input.size();
  if (n == 0) return out;
  const auto hash = [&](size_t i) {
    const uint32_t word = static_cast<uint32_t>(input[i]) |
                          (static_cast<uint32_t>(input[i + 1]) << 8) |
                          (static_cast<uint32_t>(input[i + 2]) << 16) |
                          (static_cast<uint32_t>(input[i + 3]) << 24);
    return (word * 2654435761u) >> (32 - kHashBits);
  };
  const auto flush = [&](size_t from, size_t to) {
    while (from < to) {
      const size_t run = std::min(kMaxLiteralRun, to - from);
      out.push_back(static_cast<uint8_t>(run - 1));
      out.insert(out.end(), input.begin() + static_cast<ptrdiff_t>(from),
                 input.begin() + static_cast<ptrdiff_t>(from + run));
      from += run;
    }
  };
  std::vector<size_t> table(size_t{1} << kHashBits, SIZE_MAX);
  size_t literal_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= n) {
    const uint32_t h = hash(i);
    const size_t candidate = table[h];
    table[h] = i;
    if (candidate != SIZE_MAX && candidate < i &&
        input[candidate] == input[i] && input[candidate + 1] == input[i + 1] &&
        input[candidate + 2] == input[i + 2] &&
        input[candidate + 3] == input[i + 3]) {
      size_t length = kMinMatch;
      const size_t limit = std::min(kMaxMatch, n - i);
      while (length < limit && input[candidate + length] == input[i + length]) {
        ++length;
      }
      flush(literal_start, i);
      out.push_back(static_cast<uint8_t>(0x80 | (length - kMinMatch)));
      for (uint64_t d = i - candidate;; d >>= 7) {
        if (d < 0x80) {
          out.push_back(static_cast<uint8_t>(d));
          break;
        }
        out.push_back(static_cast<uint8_t>(d) | 0x80);
      }
      i += length;
      literal_start = i;
    } else {
      ++i;
    }
  }
  flush(literal_start, n);
  return out;
}

std::vector<uint8_t> ReferenceRowPayload(const storage::Record& record,
                                         size_t logical_size,
                                         double redundancy) {
  std::vector<uint8_t> out(logical_size);
  const double clamped = std::clamp(redundancy, 0.0, 1.0);
  const size_t filler_bytes = std::min(
      logical_size,
      static_cast<size_t>(
          std::llround(clamped * static_cast<double>(logical_size))));
  const uint8_t filler = static_cast<uint8_t>(record.key * 0x9E3779B9u >> 24);
  std::fill(out.begin(), out.begin() + static_cast<ptrdiff_t>(filler_bytes),
            filler);
  uint64_t state = record.digest ^ record.key;
  for (size_t i = filler_bytes; i < logical_size; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    out[i] = static_cast<uint8_t>(state);
  }
  return out;
}

std::vector<uint8_t> ReferenceChunkPayload(
    const std::vector<storage::Record>& rows, uint64_t record_bytes,
    double redundancy) {
  std::vector<uint8_t> payload;
  for (const storage::Record& row : rows) {
    const std::vector<uint8_t> bytes =
        ReferenceRowPayload(row, record_bytes, redundancy);
    payload.insert(payload.end(), bytes.begin(), bytes.end());
  }
  return payload;
}

std::vector<storage::Record> UnsortedRows(Rng* rng, size_t n) {
  std::vector<storage::Record> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(storage::Record{rng->Next(), rng->Next(), rng->Next()});
  }
  return rows;
}

std::vector<uint8_t> ChunkPayload(const std::vector<storage::Record>& rows,
                                  uint64_t record_bytes, double redundancy) {
  std::vector<uint8_t> payload;
  MaterializeChunkPayload(rows, record_bytes, redundancy, &payload);
  return payload;
}

std::vector<uint8_t> RowPayload(const storage::Record& record,
                                size_t logical_size, double redundancy) {
  return ChunkPayload({record}, logical_size, redundancy);
}

// The fig15 chunk shape: 256 rows of 1 KiB at redundancy 0.5.
std::vector<storage::Record> Fig15ShapeRows() {
  Rng rng(0xf15);
  std::vector<storage::Record> rows;
  for (uint64_t i = 0; i < 256; ++i) {
    rows.push_back(storage::Record{1000 + 3 * i, i + 1, rng.Next()});
  }
  return rows;
}

// ---------------------------------------------------------------- LZ

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng->Next());
  return out;
}

TEST(LzTest, RoundTripRandomSizes) {
  Rng rng(0x17a);
  for (int trial = 0; trial < 50; ++trial) {
    const auto input = RandomBytes(&rng, rng.NextBelow(5000));
    const auto compressed = LzCompress(input);
    std::vector<uint8_t> out;
    ASSERT_TRUE(LzDecompress(compressed, input.size(), &out).ok()) << trial;
    EXPECT_EQ(out, input) << trial;
  }
}

TEST(LzTest, CompressesRedundantInput) {
  std::vector<uint8_t> input(64 * 1024, 0x5a);
  const auto compressed = LzCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 8);
  std::vector<uint8_t> out;
  ASSERT_TRUE(LzDecompress(compressed, input.size(), &out).ok());
  EXPECT_EQ(out, input);
}

TEST(LzTest, IncompressibleInputDoesNotExplode) {
  Rng rng(0x17b);
  const auto input = RandomBytes(&rng, 8192);
  const auto compressed = LzCompress(input);
  // Worst case is one op byte per 128 literals.
  EXPECT_LE(compressed.size(), input.size() + input.size() / 128 + 2);
}

TEST(LzTest, TruncationAndSizeMismatchRejected) {
  std::vector<uint8_t> input(4096, 0x33);
  for (size_t i = 0; i < input.size(); i += 7) {
    input[i] = static_cast<uint8_t>(i);
  }
  auto compressed = LzCompress(input);
  std::vector<uint8_t> out;
  // Wrong expected size: corruption.
  EXPECT_FALSE(LzDecompress(compressed, input.size() + 1, &out).ok());
  EXPECT_FALSE(LzDecompress(compressed, input.size() - 1, &out).ok());
  // Truncated token stream: corruption.
  compressed.pop_back();
  EXPECT_FALSE(LzDecompress(compressed, input.size(), &out).ok());
}

TEST(LzTest, DeterministicOutput) {
  Rng rng(0x17c);
  const auto input = RandomBytes(&rng, 4096);
  EXPECT_EQ(LzCompress(input), LzCompress(input));
}

// Every case runs the size-only pass and the compressor back to back
// on one thread's reused table, so stale stamps from the previous call
// (often of the same bytes) are in the table each time.
TEST(LzTest, SizeOnlyMatchesCompress) {
  Rng rng(0x17d);
  std::vector<std::vector<uint8_t>> inputs;
  for (size_t n = 0; n <= 8; ++n) {
    inputs.push_back(RandomBytes(&rng, n));
    inputs.push_back(std::vector<uint8_t>(n, 0x41));
  }
  // Literal runs around the 128-byte op limit.
  for (const size_t n : {127, 128, 129, 256}) {
    inputs.push_back(RandomBytes(&rng, n));
  }
  // RLE runs past the 131-byte match limit, between random bytes.
  for (const size_t run : {131, 132, 135, 139, 262, 263, 1000}) {
    std::vector<uint8_t> input = RandomBytes(&rng, 5);
    input.insert(input.end(), run, 0x7e);
    const auto tail = RandomBytes(&rng, 9);
    input.insert(input.end(), tail.begin(), tail.end());
    inputs.push_back(input);
  }
  // A 64-byte block repeated at varint-boundary distances.
  for (const size_t distance : {127, 128, 16383, 16384}) {
    std::vector<uint8_t> input = RandomBytes(&rng, distance + 64);
    std::copy(input.begin(), input.begin() + 64,
              input.begin() + static_cast<ptrdiff_t>(distance));
    inputs.push_back(input);
  }
  for (int trial = 0; trial < 50; ++trial) {
    inputs.push_back(RandomBytes(&rng, rng.NextBelow(5000)));
  }
  const auto rows = UnsortedRows(&rng, 37);
  for (const double r : {0.0, 0.5, 0.75, 1.0}) {
    inputs.push_back(ChunkPayload(rows, kKiB, r));
  }
  for (size_t c = 0; c < inputs.size(); ++c) {
    const std::vector<uint8_t>& input = inputs[c];
    const std::vector<uint8_t> reference = ReferenceLzCompress(input);
    EXPECT_EQ(LzCompressedSize(input.data(), input.size()), reference.size())
        << "case " << c;
    EXPECT_EQ(LzCompress(input), reference) << "case " << c;
    EXPECT_EQ(LzCompressedSize(input.data(), input.size()), reference.size())
        << "case " << c << " again";
  }
}

// LzCompressedSize and LzCompress against the reference, for `input`.
void ExpectMatchesReference(const std::vector<uint8_t>& input,
                            const std::string& label) {
  const std::vector<uint8_t> reference = ReferenceLzCompress(input);
  EXPECT_EQ(LzCompressedSize(input.data(), input.size()), reference.size())
      << label;
  EXPECT_EQ(LzCompress(input), reference) << label;
}

// The matcher's 15-bit slot index of a 4-byte little-endian prefix.
uint32_t PrefixSlot(uint32_t prefix) {
  return (prefix * 2654435761u) >> (32 - 15);
}

void AppendLe32(std::vector<uint8_t>* out, uint32_t word) {
  for (int b = 0; b < 4; ++b) {
    out->push_back(static_cast<uint8_t>(word >> (8 * b)));
  }
}

// Four distinct prefixes that share one slot, interleaved at random,
// so that most probes of that slot find another prefix's entry: only
// an equal prefix may make a match, never a shared slot.
TEST(LzTest, HashCollidingPrefixesNeverMatch) {
  // The multiplier is odd, so prefix -> prefix * multiplier is a
  // bijection; every product with the same top 15 bits shares a slot.
  uint32_t inverse = 2654435761u;
  for (int step = 0; step < 5; ++step) inverse *= 2 - 2654435761u * inverse;
  ASSERT_EQ(inverse * 2654435761u, 1u);
  constexpr uint32_t kSlot = 0x2b3c;
  std::vector<uint32_t> prefixes;
  for (uint32_t low : {0x1u, 0x4d2u, 0x9e37u, 0x1ffffu}) {
    prefixes.push_back(((kSlot << 17) | low) * inverse);
  }
  for (size_t a = 0; a < prefixes.size(); ++a) {
    ASSERT_EQ(PrefixSlot(prefixes[a]), kSlot);
    for (size_t b = 0; b < a; ++b) ASSERT_NE(prefixes[a], prefixes[b]);
  }
  Rng rng(0xc011);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<uint8_t> input;
    for (int w = 0; w < 2048; ++w) {
      AppendLe32(&input, prefixes[rng.NextBelow(prefixes.size())]);
      // A random byte now and then shifts the alignment.
      if (rng.NextBelow(8) == 0) {
        input.push_back(static_cast<uint8_t>(rng.Next()));
      }
    }
    ExpectMatchesReference(input, "trial " + std::to_string(trial));
  }
}

// 256 KiB chunks, eight times the table's slots, so every slot is
// overwritten within a call: pure noise (every position probes the
// table) and the fig15 chunk.
TEST(LzTest, FullChunksMatchReference) {
  const auto rows = Fig15ShapeRows();
  for (const double r : {0.0, 0.5}) {
    const auto chunk = ChunkPayload(rows, kKiB, r);
    ASSERT_EQ(chunk.size(), 256 * kKiB);
    ExpectMatchesReference(chunk, "r = " + std::to_string(r));
  }
}

// Call A leaves the last slot it writes tagged with prefix P; call B
// then probes that slot with P at its first position and again later.
// A's entry is stale, so B's first P is literal and its second matches
// B's own first, never A's.
TEST(LzTest, StaleSlotWithEqualPrefixIsEmpty) {
  Rng rng(0x57a1e);
  const uint32_t prefix = 0x50505050u;
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<uint8_t> a = RandomBytes(&rng, 12);
    AppendLe32(&a, prefix);
    std::vector<uint8_t> b;
    AppendLe32(&b, prefix);
    const auto middle = RandomBytes(&rng, 20 + trial);
    b.insert(b.end(), middle.begin(), middle.end());
    AppendLe32(&b, prefix);
    const auto tail = RandomBytes(&rng, 9);
    b.insert(b.end(), tail.begin(), tail.end());
    const std::vector<uint8_t> reference_a = ReferenceLzCompress(a);
    const std::vector<uint8_t> reference_b = ReferenceLzCompress(b);
    // Size pass then compressor, each after its own call A.
    EXPECT_EQ(LzCompressedSize(a.data(), a.size()), reference_a.size());
    EXPECT_EQ(LzCompressedSize(b.data(), b.size()), reference_b.size())
        << trial;
    EXPECT_EQ(LzCompress(a), reference_a);
    const std::vector<uint8_t> tokens = LzCompress(b);
    EXPECT_EQ(tokens, reference_b) << trial;
    // B's first token is a literal run starting with P.
    ASSERT_GE(tokens.size(), 5u);
    EXPECT_LT(tokens[0], 0x80);
    EXPECT_EQ(std::vector<uint8_t>(tokens.begin() + 1, tokens.begin() + 5),
              std::vector<uint8_t>(b.begin(), b.begin() + 4));
  }
}

// ------------------------------------------------------------- Payload

TEST(PayloadTest, DeterministicAndRedundancyControlsRatio) {
  const storage::Record rec{42, 7, 0xabc};
  const auto a = RowPayload(rec, 1024, 0.75);
  const auto b = RowPayload(rec, 1024, 0.75);
  EXPECT_EQ(a, b);

  const auto noise = RowPayload(rec, 16 * 1024, 0.0);
  const auto redundant = RowPayload(rec, 16 * 1024, 0.75);
  EXPECT_GT(LzCompress(noise).size(), LzCompress(redundant).size());
  // ~1/(1 - r) ratio on the redundant payload.
  EXPECT_LT(LzCompress(redundant).size(), redundant.size() / 2);
}

TEST(PayloadTest, NoiseTailIsStoragePayloadPrefix) {
  const storage::Record rec{0x5151, 9, 0xfeedface};
  for (const size_t size : {1, 7, 100, 1024, 3001}) {
    for (const double r : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const auto payload = RowPayload(rec, size, r);
      const auto filler = static_cast<size_t>(
          std::llround(r * static_cast<double>(size)));
      const std::vector<uint8_t> tail(
          payload.begin() + static_cast<ptrdiff_t>(filler), payload.end());
      EXPECT_EQ(tail, storage::MaterializePayload(rec, size - filler))
          << size << " bytes at r = " << r;
    }
  }
}

// Row counts 0-40 and 255-257: every mix of 16-row pairs with the
// 8-, 4- and 1-row tails.
std::vector<size_t> WriterRowCounts() {
  std::vector<size_t> counts;
  for (size_t n = 0; n <= 40; ++n) counts.push_back(n);
  for (const size_t n : {255, 256, 257}) counts.push_back(n);
  return counts;
}

// Holds one build of the writer to the reference, byte for byte, on
// every row count and on rows of 1 to 1031 bytes. The output vector is
// reused across calls, as EncodeSnapshotChunk reuses its buffer, so
// each call overwrites the bytes of the last.
template <typename Writer>
void ExpectWriterMatchesReference(Writer write) {
  Rng rng(0x9a1);
  std::vector<uint8_t> chunk;
  for (const size_t n : WriterRowCounts()) {
    const auto rows = UnsortedRows(&rng, n);
    for (const uint64_t size : {1, 5, 8, 9, 1024, 1031}) {
      for (const double r : {0.0, 0.3, 0.5, 1.0}) {
        write(rows, size, r, &chunk);
        ASSERT_EQ(chunk, ReferenceChunkPayload(rows, size, r))
            << n << " rows of " << size << " bytes at r = " << r;
      }
    }
  }
}

TEST(PayloadTest, InterleavedWriterMatchesPerRowWriter) {
  ExpectWriterMatchesReference(MaterializeChunkPayload);
  // Row by row, every row takes the one-lane path.
  Rng rng(0x9a1);
  for (const size_t n : WriterRowCounts()) {
    const auto rows = UnsortedRows(&rng, n);
    for (const uint64_t size : {1, 5, 8, 9, 1024, 1031}) {
      for (const double r : {0.0, 0.3, 0.5, 1.0}) {
        std::vector<uint8_t> per_row;
        for (const storage::Record& row : rows) {
          const auto bytes = RowPayload(row, size, r);
          per_row.insert(per_row.end(), bytes.begin(), bytes.end());
        }
        EXPECT_EQ(ChunkPayload(rows, size, r), per_row)
            << n << " rows of " << size << " bytes at r = " << r;
      }
    }
  }
}

TEST(PayloadTest, PortableWriterMatchesReference) {
  ExpectWriterMatchesReference(MaterializeChunkPayloadPortable);
}

TEST(PayloadTest, Avx512WriterMatchesReference) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx512f") || !__builtin_cpu_supports("avx512bw") ||
      !__builtin_cpu_supports("avx512vl")) {
    GTEST_SKIP() << "this CPU lacks AVX-512 F/BW/VL, so it cannot run the "
                    "wide build; the portable build serves it";
  }
  ExpectWriterMatchesReference(MaterializeChunkPayloadAvx512);
#else
  GTEST_SKIP() << "the wide build exists only on x86-64";
#endif
}

TEST(PayloadTest, ChunkPayloadCrcMatchesMaterializedBytes) {
  Rng rng(0x9a2);
  for (int trial = 0; trial < 320; ++trial) {
    const size_t n = trial == 0 ? 0 : rng.NextBelow(23);
    const auto rows = UnsortedRows(&rng, n);
    const uint64_t size = 1 + rng.NextBelow(3000);
    const double r = trial % 3 == 0   ? 0.0
                     : trial % 3 == 1 ? 1.0
                                      : rng.NextDouble();
    EXPECT_EQ(ChunkPayloadCrc(rows, size, r),
              Crc32c(ReferenceChunkPayload(rows, size, r)))
        << "trial " << trial << ": " << n << " rows of " << size
        << " bytes at r = " << r;
  }
}

// Computed by materializing the chunk and taking its CRC-32C, as the
// stream did before the closed form.
TEST(PayloadTest, ChunkPayloadCrcPinnedOnFig15Shape) {
  const auto rows = Fig15ShapeRows();
  EXPECT_EQ(ChunkPayloadCrc(rows, kKiB, 0.5), 0x06f1c5ebu);
  CodecConfig config;
  config.mode = CodecMode::kLz;
  config.payload_redundancy = 0.5;
  const EncodedChunk enc =
      EncodeSnapshotChunk(rows, rows.size() * kKiB, Codec::kLz, config, kKiB);
  ASSERT_EQ(enc.frame.codec, Codec::kLz);
  EXPECT_EQ(enc.frame.payload_crc, 0x06f1c5ebu);
  EXPECT_EQ(enc.frame.encoded_bytes, 135418u);
}

// --------------------------------------------------------------- Frame

FrameHeader SampleFrame() {
  FrameHeader frame;
  frame.codec = Codec::kLz;
  frame.logical_bytes = 1 << 20;
  frame.encoded_bytes = 123456;
  frame.payload_crc = 0xdeadbeef;
  frame.payload_redundancy = 0.5;
  return frame;
}

TEST(FrameTest, HeaderRoundTrip) {
  const FrameHeader frame = SampleFrame();
  ByteWriter writer;
  frame.EncodeTo(&writer);
  ByteReader reader(writer.data());
  FrameHeader out;
  ASSERT_TRUE(out.DecodeFrom(&reader).ok());
  EXPECT_EQ(out, frame);
  EXPECT_TRUE(reader.exhausted());
}

TEST(FrameTest, EveryHeaderByteIsCrcProtected) {
  const FrameHeader frame = SampleFrame();
  ByteWriter writer;
  frame.EncodeTo(&writer);
  const std::vector<uint8_t> bytes = writer.data();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x20;
    ByteReader reader(corrupt);
    FrameHeader out;
    // Either the header CRC (or magic/version check) rejects it, or the
    // flip hit a varint continuation and truncation is detected —
    // never a silently-wrong decode.
    EXPECT_FALSE(out.DecodeFrom(&reader).ok() && out == frame) << i;
  }
}

TEST(FrameTest, OverlongVarintIsRejectedDespiteItsCrc) {
  // logical_bytes = 5 as the overlong varint 0x85 0x00, with a header
  // CRC over exactly these bytes: not what EncodeTo writes.
  ByteWriter writer;
  writer.PutU8(kCodecFrameMagic);
  writer.PutU8(1);  // Version.
  writer.PutU8(static_cast<uint8_t>(Codec::kLz));
  writer.PutU8(0x85);
  writer.PutU8(0x00);
  writer.PutVarint64(3);
  writer.PutFixed32(0);
  writer.PutFixed32(0);
  writer.PutDouble(0.0);
  writer.PutFixed32(Crc32c(writer.data()));
  ByteReader reader(writer.data());
  FrameHeader out;
  EXPECT_EQ(out.DecodeFrom(&reader).code(), StatusCode::kCorruption);
}

TEST(FrameTest, ChunkCrcIsOrderAndContentSensitive) {
  std::vector<storage::Record> rows = {{1, 2, 3}, {4, 5, 6}};
  const uint32_t crc = ChunkCrc(rows);
  EXPECT_EQ(crc, ChunkCrc(rows));
  std::vector<storage::Record> swapped = {{4, 5, 6}, {1, 2, 3}};
  EXPECT_NE(crc, ChunkCrc(swapped));
  rows[1].digest ^= 1;
  EXPECT_NE(crc, ChunkCrc(rows));
}

// ChunkCrc takes one CRC over the rows' memory on a little-endian host;
// it must equal the CRC of the rows packed one by one, explicitly
// little-endian, for any rows and any count.
TEST(FrameTest, ChunkCrcEqualsExplicitLittleEndianPacking) {
  Rng rng(2024);
  for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{256},
                       size_t{1000}}) {
    std::vector<storage::Record> rows(count);
    for (storage::Record& r : rows) {
      r = {rng.Next(), rng.Next() >> rng.NextBelow(64), rng.Next()};
    }
    std::vector<uint8_t> packed;
    for (const storage::Record& r : rows) {
      for (const uint64_t field : {r.key, r.lsn, r.digest}) {
        for (int i = 0; i < 8; ++i) {
          packed.push_back(static_cast<uint8_t>(field >> (8 * i)));
        }
      }
    }
    EXPECT_EQ(ChunkCrc(rows), Crc32c(packed)) << count << " rows";
  }
}

// ------------------------------------------------------------ Selector

TEST(SelectorTest, EngagesLzOnlyWhenNetworkBound) {
  CodecConfig config;
  config.mode = CodecMode::kAdaptive;
  CodecSelector selector(config);

  SelectorInputs inputs;
  inputs.throttle_bytes_per_sec = 10.0 * kMiB;  // Slow wire.
  inputs.total_cores = 8;
  inputs.busy_cores = 1.0;
  EXPECT_EQ(selector.Choose(inputs), Codec::kLz);

  // Saturated CPU: compression would become the bottleneck.
  inputs.busy_cores = 8.0;
  EXPECT_EQ(selector.Choose(inputs), Codec::kRaw);

  // Fast wire, one free core: the throttle drains faster than one core
  // can compress — stay raw.
  inputs.busy_cores = 7.0;
  inputs.throttle_bytes_per_sec = 200.0 * kMiB;
  EXPECT_EQ(selector.Choose(inputs), Codec::kRaw);
}

TEST(SelectorTest, ObservedRatioFeedsBackIntoEngageDecision) {
  CodecConfig config;
  config.mode = CodecMode::kAdaptive;
  CodecSelector selector(config);
  const double prior = selector.expected_ratio();
  EXPECT_NEAR(prior, 2.0, 1e-9);  // redundancy 0.5 → ~2x.
  for (int i = 0; i < 50; ++i) selector.ObserveRatio(4.0);
  EXPECT_GT(selector.expected_ratio(), 3.5);

  // A higher expected ratio raises the logical drain rate, so a
  // borderline CPU budget that engaged at 2x no longer engages at ~4x.
  SelectorInputs inputs;
  inputs.total_cores = 1;
  inputs.busy_cores = 0.0;
  // One core compresses 150 MiB/s; engage needs rate*ratio*1.25 below.
  inputs.throttle_bytes_per_sec = 40.0 * kMiB;
  CodecSelector fresh(config);
  EXPECT_EQ(fresh.Choose(inputs), Codec::kLz);       // 40*2*1.25 = 100.
  EXPECT_EQ(selector.Choose(inputs), Codec::kRaw);   // 40*~4*1.25 > 150.
}

// ----------------------------------------------------------- ChunkCodec

std::vector<storage::Record> RandomSortedRows(Rng* rng, uint64_t max_rows) {
  std::set<uint64_t> keys;
  const uint64_t n = rng->NextBelow(max_rows);
  while (keys.size() < n) keys.insert(rng->NextBelow(10 * max_rows));
  std::vector<storage::Record> rows;
  for (const uint64_t key : keys) {
    rows.push_back(storage::Record{key, rng->Next(), rng->Next()});
  }
  return rows;
}

TEST(ChunkCodecTest, LzFrameVerifiesPayloadCrcEndToEnd) {
  Rng rng(0xcc02);
  const auto rows = RandomSortedRows(&rng, 48);
  CodecConfig config;
  config.mode = CodecMode::kLz;
  config.payload_redundancy = 0.75;
  const EncodedChunk enc =
      EncodeSnapshotChunk(rows, rows.size() * kKiB, Codec::kLz, config, kKiB);
  ASSERT_EQ(enc.frame.codec, Codec::kLz);
  EXPECT_LT(enc.frame.encoded_bytes, enc.frame.logical_bytes);
  EXPECT_GT(enc.cpu_seconds, 0.0);
  EXPECT_GT(DecodeCpuSeconds(enc.frame), 0.0);

  // The target re-materializes the payload from the received rows.
  EXPECT_TRUE(VerifyPayloadCrc(enc.frame, rows, kKiB));
  std::vector<storage::Record> tampered = rows;
  tampered.front().digest ^= 1;
  EXPECT_FALSE(VerifyPayloadCrc(enc.frame, tampered, kKiB));
}

// ------------------------------------------------ Go-back-N resend

enum class ChunkFault {
  kDrop,  // Chunk 2 is lost on the wire: a gap.
  // Chunk 2 arrives with one row's digest flipped and fails its CRC,
  // and the target's first NACK is lost, so the source streams on until
  // the target NACKs again eight chunks later.
  kCorruptAndLoseNack,
};

// One live migration that loses snapshot chunk 2 once. Records what the
// source's channel carried and the ledger as the handover ack reaches
// the source, when the snapshot pipe is drained and the ledger is still
// open.
struct GoBackNRun {
  bool done = false;
  MigrationReport report;
  /// Per snapshot chunk seq, the chunk_crc of each transmission.
  std::map<uint64_t, std::vector<uint32_t>> chunk_crcs;
  std::optional<InvariantAuditor::ChunkLedger> ledger;
};

GoBackNRun RunGoBackN(CodecMode mode, ChunkFault fault,
                      double mean_interarrival) {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);

  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 16 * 1024;
  tenant.buffer_pool_bytes = 2 * kMiB;
  EXPECT_TRUE(cluster.AddTenant(0, tenant).ok());

  GoBackNRun run;
  cluster.ChannelBetween(0, 1)->SetDeliveryFilter([&run, fault](
                                                      net::Message* m) {
    if (m->type != net::MessageType::kSnapshotChunk) return true;
    std::vector<uint32_t>& crcs = run.chunk_crcs[m->chunk_seq];
    crcs.push_back(m->chunk_crc);
    if (m->chunk_seq != 2 || crcs.size() != 1) return true;
    if (fault == ChunkFault::kDrop) return false;
    m->rows.front().digest ^= 1;
    return true;
  });
  cluster.ChannelBetween(1, 0)->SetDeliveryFilter(
      [&run, &cluster, fault, nack_lost = false](net::Message* m) mutable {
        if (fault == ChunkFault::kCorruptAndLoseNack && !nack_lost &&
            m->type == net::MessageType::kSnapshotNack) {
          nack_lost = true;
          return false;
        }
        if (m->type == net::MessageType::kHandoverAck) {
          const InvariantAuditor::ChunkLedger* ledger =
              cluster.auditor()->ledger(1);
          if (ledger != nullptr) run.ledger = *ledger;
        }
        return true;
      });

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mean_interarrival = mean_interarrival;
  workload::YcsbWorkload workload(ycsb, 1, 0xc0de);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  pool.Start();
  sim.RunUntil(2.0);

  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 16.0;
  options.prepare.base_seconds = 0.5;
  options.codec.mode = mode;
  EXPECT_TRUE(cluster
                  .StartMigration(1, 1, options,
                                  [&run](const MigrationReport& r) {
                                    run.report = r;
                                    run.done = true;
                                  })
                  .ok());
  sim.RunUntil(120.0);
  pool.Stop();
  sim.RunUntil(140.0);
  return run;
}

// The go-back-N outcome every codec must reach: the handover digests
// match, the ledger balances in all three units with the lost chunk
// on its discard or drop side, and the report counts a resend.
void ExpectConverged(const GoBackNRun& run) {
  ASSERT_TRUE(run.done);
  ASSERT_TRUE(run.report.status.ok()) << run.report.status.ToString();
  EXPECT_TRUE(run.report.digest_match);
  EXPECT_GT(run.report.chunks_retransmitted, 0u);
  ASSERT_TRUE(run.ledger.has_value());
  const InvariantAuditor::ChunkLedger& l = *run.ledger;
  EXPECT_EQ(l.sent_chunks,
            l.applied_chunks + l.discarded_chunks + l.dropped_chunks);
  EXPECT_EQ(l.sent_bytes, l.applied_bytes + l.discarded_bytes + l.dropped_bytes);
  EXPECT_EQ(l.sent_wire_bytes, l.applied_wire_bytes + l.discarded_wire_bytes +
                                   l.dropped_wire_bytes);
  EXPECT_GE(l.discarded_chunks + l.dropped_chunks, 1u);
  EXPECT_GT(run.chunk_crcs.at(2).size(), 1u);
}

TEST(CodecMigrationTest, ForcedNackResendsRawOrLzFramesAndConverges) {
  // Drop exactly one snapshot chunk mid-stream. The gap NACKs, the
  // source rewinds, and every resent chunk goes through the selector
  // like a first send.
  for (const CodecMode mode :
       {CodecMode::kAdaptive, CodecMode::kLz, CodecMode::kRaw}) {
    SCOPED_TRACE(CodecModeName(mode));
    const GoBackNRun run = RunGoBackN(mode, ChunkFault::kDrop, 0.2);
    ExpectConverged(run);
    const MigrationReport& report = run.report;
    if (mode == CodecMode::kRaw) {
      EXPECT_EQ(report.chunks_lz, 0u);
      EXPECT_EQ(report.snapshot_wire_bytes, report.snapshot_bytes);
      EXPECT_EQ(report.delta_wire_bytes, report.delta_bytes);
      EXPECT_EQ(report.codec_cpu_seconds, 0.0);
      continue;
    }
    // The compressible workload beats raw on the wire, resends included.
    EXPECT_GT(report.chunks_lz, 0u);
    EXPECT_LT(report.snapshot_wire_bytes, report.snapshot_bytes);
    EXPECT_GT(report.CompressionRatio(), 1.0);
    EXPECT_GT(report.codec_cpu_seconds, 0.0);
  }
}

TEST(GoBackNTest, CorruptChunkResendsRereadRowsAndConverges) {
  // Chunk 2 fails its CRC and the first NACK is lost. Writes land while
  // the source streams on, so chunks it re-reads after the rewind
  // differ from their first transmission; the target applies the
  // re-read rows, on raw and LZ frames alike.
  for (const CodecMode mode : {CodecMode::kRaw, CodecMode::kLz}) {
    SCOPED_TRACE(CodecModeName(mode));
    const GoBackNRun run =
        RunGoBackN(mode, ChunkFault::kCorruptAndLoseNack, 0.05);
    ExpectConverged(run);
    EXPECT_EQ(run.report.chunks_lz > 0, mode == CodecMode::kLz);
    bool reread_differs = false;
    for (const auto& [seq, crcs] : run.chunk_crcs) {
      for (const uint32_t crc : crcs) reread_differs |= crc != crcs.front();
    }
    EXPECT_TRUE(reread_differs);
  }
}

TEST(CodecMigrationTest, RawAndAdaptiveConvergeToSameAuthority) {
  // Same cluster, workload, and seed under --codec=raw and
  // --codec=adaptive: both must hand over with matching digests —
  // compression is transparent to correctness.
  for (const CodecMode mode : {CodecMode::kRaw, CodecMode::kAdaptive}) {
    sim::Simulator sim;
    ClusterOptions cluster_options;
    cluster_options.num_servers = 2;
    Cluster cluster(&sim, cluster_options);

    engine::TenantConfig tenant;
    tenant.tenant_id = 1;
    tenant.layout.record_count = 8 * 1024;
    tenant.buffer_pool_bytes = 2 * kMiB;
    ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());

    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = 0.3;
    workload::YcsbWorkload workload(ycsb, 1, 7);
    workload::ClientPool pool(&sim, &workload, &cluster,
                              cluster.MakeLatencyObserver());
    cluster.AttachClientPool(1, &pool);
    pool.Start();
    sim.RunUntil(2.0);

    MigrationOptions options;
    options.throttle = ThrottleKind::kFixed;
    options.fixed_rate_mbps = 16.0;
    options.prepare.base_seconds = 0.5;
    options.codec.mode = mode;
    MigrationReport report;
    bool done = false;
    ASSERT_TRUE(cluster
                    .StartMigration(1, 1, options,
                                    [&](const MigrationReport& r) {
                                      report = r;
                                      done = true;
                                    })
                    .ok());
    sim.RunUntil(120.0);
    pool.Stop();
    sim.RunUntil(140.0);

    ASSERT_TRUE(done) << CodecModeName(mode);
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_TRUE(report.digest_match) << CodecModeName(mode);
    EXPECT_EQ(*cluster.directory()->Lookup(1), 1u);
    if (mode == CodecMode::kRaw) {
      // Raw accounting: wire bytes equal logical bytes exactly.
      EXPECT_EQ(report.snapshot_wire_bytes, report.snapshot_bytes);
      EXPECT_EQ(report.delta_wire_bytes, report.delta_bytes);
      EXPECT_EQ(report.chunks_lz, 0u);
      EXPECT_DOUBLE_EQ(report.CompressionRatio(), 1.0);
    } else {
      EXPECT_GT(report.chunks_lz, 0u);
      EXPECT_LT(report.snapshot_wire_bytes, report.snapshot_bytes);
    }
  }
}

TEST(CodecMigrationTest, MixedVersionPairDowngradesToCommonCodec) {
  // An adaptive-mode migration between a v3 source (LZ + adaptive) and a
  // v1 target (raw only) must negotiate down to raw on the wire and
  // still converge; the same pair at v3/v3 keeps the compressor. The
  // downgrade never fails the migration (DESIGN.md §12).
  struct Case {
    uint32_t source_version;
    uint32_t target_version;
    bool expect_compressed;
  } kCases[] = {{3, 1, false}, {1, 3, false}, {3, 3, true}};
  for (const Case& c : kCases) {
    sim::Simulator sim;
    ClusterOptions cluster_options;
    cluster_options.num_servers = 2;
    cluster_options.software_version = 1;
    Cluster cluster(&sim, cluster_options);
    ASSERT_TRUE(cluster.SetServerVersion(0, c.source_version).ok());
    ASSERT_TRUE(cluster.SetServerVersion(1, c.target_version).ok());

    engine::TenantConfig tenant;
    tenant.tenant_id = 1;
    tenant.layout.record_count = 8 * 1024;
    tenant.buffer_pool_bytes = 2 * kMiB;
    ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());

    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = 0.3;
    workload::YcsbWorkload workload(ycsb, 1, 7);
    workload::ClientPool pool(&sim, &workload, &cluster,
                              cluster.MakeLatencyObserver());
    cluster.AttachClientPool(1, &pool);
    pool.Start();
    sim.RunUntil(2.0);

    MigrationOptions options;
    options.throttle = ThrottleKind::kFixed;
    options.fixed_rate_mbps = 16.0;
    options.prepare.base_seconds = 0.5;
    options.codec.mode = CodecMode::kAdaptive;
    MigrationReport report;
    bool done = false;
    ASSERT_TRUE(cluster
                    .StartMigration(1, 1, options,
                                    [&](const MigrationReport& r) {
                                      report = r;
                                      done = true;
                                    })
                    .ok());
    sim.RunUntil(120.0);
    pool.Stop();
    sim.RunUntil(140.0);

    // Appended piece by piece: GCC 12 at -O3 reports a false
    // -Wrestrict on the equivalent operator+ chain.
    std::string trace = "v";
    trace += std::to_string(c.source_version);
    trace += " -> v";
    trace += std::to_string(c.target_version);
    SCOPED_TRACE(trace);
    ASSERT_TRUE(done);
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_TRUE(report.digest_match);
    EXPECT_EQ(*cluster.directory()->Lookup(1), 1u);
    if (c.expect_compressed) {
      EXPECT_GT(report.chunks_lz, 0u);
      EXPECT_LT(report.snapshot_wire_bytes, report.snapshot_bytes);
    } else {
      // Downgraded to raw: byte-for-byte accounting, no encoded chunks.
      EXPECT_EQ(report.chunks_lz, 0u);
      EXPECT_EQ(report.snapshot_wire_bytes, report.snapshot_bytes);
      EXPECT_EQ(report.delta_wire_bytes, report.delta_bytes);
    }
  }
}

// ------------------------------------------------ Stream fingerprints

// What one small traced live migration emits: the report, the Chrome
// trace, the metric CSV (sampled by PublishMetrics at 1 Hz) and the
// final codec_cpu_us counter.
struct StreamRun {
  MigrationReport report;
  std::string trace;
  std::string csv;
  uint64_t codec_cpu_us = 0;
  /// With a chunk dropped: snapshot chunk messages the source's channel
  /// carried, the dropped one included, and the distinct seqs among them.
  uint64_t chunk_messages = 0;
  uint64_t distinct_chunks = 0;
};

// A write workload runs on a 4 MiB tenant while it migrates at a fixed
// 1 MB/s, shipping delta rounds until under 2 KiB remain; `drop_chunk`
// loses snapshot chunk 2 once so go-back-N runs.
StreamRun RunTracedStream(CodecMode mode, bool drop_chunk) {
  sim::Simulator sim;
  obs::Tracer tracer([&sim] { return sim.Now(); });
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);
  cluster.InstallTracer(&tracer);

  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 4 * 1024;
  tenant.buffer_pool_bytes = 2 * kMiB;
  EXPECT_TRUE(cluster.AddTenant(0, tenant).ok());
  StreamRun run;
  std::set<uint64_t> seqs;
  if (drop_chunk) {
    cluster.ChannelBetween(0, 1)->SetDeliveryFilter(
        [&run, &seqs](net::Message* m) {
          if (m->type != net::MessageType::kSnapshotChunk) return true;
          ++run.chunk_messages;
          return !seqs.insert(m->chunk_seq).second || m->chunk_seq != 2;
        });
  }

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mean_interarrival = 0.05;
  workload::YcsbWorkload workload(ycsb, 1, 0x5eed);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  sim::PeriodicTimer sampler(&sim, /*period=*/1.0, [&](SimTime) {
    PublishMetrics(&cluster, tracer.registry());
  });
  sampler.Start();
  pool.Start();
  sim.RunUntil(2.0);

  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 1.0;
  // The throttle's burst is one chunk: small chunks make delta rounds
  // wait for tokens, so when a round is read relative to its grant
  // shows in the output.
  options.backup.chunk_bytes = 64 * kKiB;
  options.prepare.base_seconds = 0.5;
  // Small enough that the delta pump ships rounds before handover.
  options.delta_handover_bytes = 2 * kKiB;
  options.codec.mode = mode;
  bool done = false;
  EXPECT_TRUE(cluster
                  .StartMigration(1, 1, options,
                                  [&](const MigrationReport& r) {
                                    run.report = r;
                                    done = true;
                                  })
                  .ok());
  while (!done && sim.Now() < 120.0) sim.RunUntil(sim.Now() + 1.0);
  EXPECT_TRUE(done);
  pool.Stop();
  sampler.Stop();
  run.trace = obs::ToChromeTraceJson(tracer);
  run.csv = obs::ToCsv(*tracer.registry());
  run.codec_cpu_us =
      tracer.registry()->FindOrCreateCounter("codec_cpu_us", "tenant=1")
          ->value();
  run.distinct_chunks = seqs.size();
  cluster.InstallTracer(nullptr);
  return run;
}

uint32_t Fingerprint(const std::string& s) {
  return Crc32c(std::vector<uint8_t>(s.begin(), s.end()));
}

std::string ReportFields(const MigrationReport& r) {
  std::string out = r.status.ToString() + "|" + r.throttle_name + "|";
  const double fields[] = {
      r.start_time, r.end_time, r.negotiate_seconds, r.snapshot_seconds,
      r.prepare_seconds, r.delta_seconds, r.handover_seconds, r.downtime_ms,
      static_cast<double>(r.snapshot_bytes),
      static_cast<double>(r.delta_bytes),
      static_cast<double>(r.snapshot_wire_bytes),
      static_cast<double>(r.delta_wire_bytes),
      static_cast<double>(r.chunks_raw), static_cast<double>(r.chunks_lz),
      r.codec_cpu_seconds,
      static_cast<double>(r.delta_rounds), r.digest_match ? 1.0 : 0.0,
      static_cast<double>(r.chunks_retransmitted)};
  for (const double v : fields) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    out += buf;
  }
  return out;
}

TEST(StreamPinTest, RawAndAdaptiveStreamsMatchPinnedFingerprints) {
  // Pins the migration stream's observable output to committed values
  // so a refactor of the snapshot or delta pump that moves a single
  // byte of report, trace or metric output fails here. The CSV is
  // pinned for raw runs only, where it also must carry no codec metric.
  struct Pin {
    CodecMode mode;
    bool drop_chunk;
    uint32_t report;
    uint32_t trace;
    uint32_t csv;
  } kPins[] = {
      {CodecMode::kRaw, false, 3125932387u, 3285460918u, 2923603391u},
      {CodecMode::kRaw, true, 3366100961u, 1668006402u, 865639794u},
      {CodecMode::kAdaptive, false, 649995403u, 2190124580u, 0},
      {CodecMode::kAdaptive, true, 1946407715u, 3935354257u, 0},
  };
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(std::string(CodecModeName(pin.mode)) +
                 (pin.drop_chunk ? " with chunk 2 dropped" : ""));
    const StreamRun run = RunTracedStream(pin.mode, pin.drop_chunk);
    ASSERT_TRUE(run.report.status.ok()) << run.report.status.ToString();
    EXPECT_TRUE(run.report.digest_match);
    EXPECT_EQ(run.report.chunks_retransmitted > 0, pin.drop_chunk);
    EXPECT_EQ(Fingerprint(ReportFields(run.report)), pin.report)
        << ReportFields(run.report);
    EXPECT_EQ(Fingerprint(run.trace), pin.trace);
    if (pin.mode == CodecMode::kRaw) {
      EXPECT_EQ(Fingerprint(run.csv), pin.csv);
      EXPECT_EQ(run.csv.find("codec_"), std::string::npos);
    }
  }
}

TEST(StreamPinTest, OneLostChunkCostsOneNackRoundInEveryCodecMode) {
  // Go-back-N rewinds once to the gap, and the resent chunks fill it. A
  // codec stream reads its next chunk ahead of the tokens; the rewind
  // discards that chunk unsent, so it is no retransmission: the counter
  // and the snapshot_nack event count exactly the seqs sent twice.
  for (const CodecMode mode :
       {CodecMode::kRaw, CodecMode::kLz, CodecMode::kAdaptive}) {
    SCOPED_TRACE(CodecModeName(mode));
    const StreamRun run = RunTracedStream(mode, /*drop_chunk=*/true);
    ASSERT_TRUE(run.report.status.ok()) << run.report.status.ToString();
    EXPECT_TRUE(run.report.digest_match);
    size_t nack_rounds = 0;
    for (size_t at = run.trace.find("\"snapshot_nack\"");
         at != std::string::npos;
         at = run.trace.find("\"snapshot_nack\"", at + 1)) {
      ++nack_rounds;
    }
    EXPECT_EQ(nack_rounds, 1u);
    // The gap plus the chunks already in flight behind it.
    const uint64_t resent = run.chunk_messages - run.distinct_chunks;
    EXPECT_GE(resent, 1u);
    EXPECT_LE(resent, 3u);
    EXPECT_EQ(run.report.chunks_retransmitted, resent);
    EXPECT_NE(run.trace.find("\"chunks_resent\":" + std::to_string(resent)),
              std::string::npos);
  }
}

TEST(StreamPinTest, CodecCpuCounterSumsWholeMicroseconds) {
  // Each 64 KiB LZ chunk costs well under 1 ms of encode CPU, so a
  // counter in whole milliseconds would round every chunk down to 0.
  for (const bool drop_chunk : {false, true}) {
    SCOPED_TRACE(drop_chunk ? "chunk 2 dropped" : "no loss");
    const StreamRun run = RunTracedStream(CodecMode::kAdaptive, drop_chunk);
    const MigrationReport& r = run.report;
    ASSERT_GT(r.chunks_lz, 0u);
    ASSERT_GT(r.codec_cpu_seconds, 0.0);
    const uint64_t chunks = r.chunks_raw + r.chunks_lz;
    EXPECT_NEAR(static_cast<double>(run.codec_cpu_us),
                r.codec_cpu_seconds * 1e6, static_cast<double>(chunks));
  }
}

}  // namespace
}  // namespace slacker::codec
