// Unit tests for src/common: Status/Result, byte codecs, RNG and
// distributions, streaming statistics, histograms, and checksums.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/checksum.h"
#include "src/common/ring_deque.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace slacker {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("tenant 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "tenant 7");
  EXPECT_EQ(s.ToString(), "NotFound: tenant 7");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Aborted("x"), Status::Aborted("x"));
  EXPECT_FALSE(Status::Aborted("x") == Status::Aborted("y"));
  EXPECT_FALSE(Status::Aborted("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

Status FailsThrough() {
  SLACKER_RETURN_IF_ERROR(Status::Aborted("inner"));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(FailsThrough(), Status::Aborted("inner"));
}

// GCC 12 emits a spurious -Wmaybe-uninitialized from deep inside
// std::variant when it fully inlines this body (the string member of
// the error alternative is never constructed on the value path).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}
#pragma GCC diagnostic pop

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------- Bytes

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutFixed32(0xdeadbeef);
  w.PutFixed64(0x0123456789abcdefULL);
  w.PutDouble(3.5);
  ByteReader r(w.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double d;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetFixed32(&u32).ok());
  ASSERT_TRUE(r.GetFixed64(&u64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(d, 3.5);
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, VarintRoundTripBoundaries) {
  const uint64_t values[] = {0,    1,    127,        128,
                             300,  1u << 14,  (1u << 14) - 1,
                             UINT32_MAX, UINT64_MAX, UINT64_MAX - 1};
  ByteWriter w;
  for (uint64_t v : values) w.PutVarint64(v);
  ByteReader r(w.data());
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(r.GetVarint64(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, VarintSingleByteForSmall) {
  ByteWriter w;
  w.PutVarint64(127);
  EXPECT_EQ(w.size(), 1u);
}

TEST(BytesTest, StringRoundTrip) {
  ByteWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string("\0binary\xff", 8));
  ByteReader r(w.data());
  std::string a, b, c;
  ASSERT_TRUE(r.GetString(&a).ok());
  ASSERT_TRUE(r.GetString(&b).ok());
  ASSERT_TRUE(r.GetString(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 8u);
}

TEST(BytesTest, TruncatedInputsReturnCorruption) {
  ByteWriter w;
  w.PutFixed64(7);
  // Drop the last byte.
  std::vector<uint8_t> data = w.data();
  data.pop_back();
  ByteReader r(data);
  uint64_t v;
  EXPECT_EQ(r.GetFixed64(&v).code(), StatusCode::kCorruption);
}

TEST(BytesTest, OverlongVarintRejected) {
  std::vector<uint8_t> data(11, 0x80);  // Never terminates within 64 bits.
  ByteReader r(data);
  uint64_t v;
  EXPECT_EQ(r.GetVarint64(&v).code(), StatusCode::kCorruption);
}

TEST(BytesTest, StringLengthBeyondBufferRejected) {
  ByteWriter w;
  w.PutVarint64(1000);  // Claims 1000 bytes, provides none.
  ByteReader r(w.data());
  std::string s;
  EXPECT_EQ(r.GetString(&s).code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------- Random

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.NextBelow(17), 17u);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Exponential(0.25));
  EXPECT_NEAR(stats.mean(), 0.25, 0.005);
  // Exponential CV = 1.
  EXPECT_NEAR(stats.stddev() / stats.mean(), 1.0, 0.02);
}

// A Bernoulli(p) trial is spelled `NextDouble() < p`.
TEST(RngTest, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.NextDouble() < 0.15;
  EXPECT_NEAR(hits / 100000.0, 0.15, 0.01);
}

TEST(ZipfianTest, RankZeroIsMostPopular) {
  Rng rng(23);
  ZipfianGenerator zipf(1000, 0.99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next(&rng)];
  // Head should dominate the tail.
  EXPECT_GT(counts[0], counts[500] * 5);
  for (const auto& [rank, count] : counts) EXPECT_LT(rank, 1000u);
}

TEST(ZipfianTest, ThetaControlsSkew) {
  Rng rng(25);
  ZipfianGenerator mild(1000, 0.5), hot(1000, 0.99);
  int mild_head = 0, hot_head = 0;
  for (int i = 0; i < 50000; ++i) {
    mild_head += mild.Next(&rng) < 10;
    hot_head += hot.Next(&rng) < 10;
  }
  EXPECT_GT(hot_head, mild_head);
}

TEST(ScrambleTest, FnvScrambleIsDeterministicAndSpreads) {
  EXPECT_EQ(FnvScramble(42), FnvScramble(42));
  EXPECT_NE(FnvScramble(1), FnvScramble(2));
}

// ---------------------------------------------------------------- Stats

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RingDequeTest, FifoAcrossWrapAround) {
  RingDeque<int> d;
  // Interleave pushes and pops so head_ circles the buffer several
  // times at a size below capacity — the wrap-around masking path.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 7; ++i) d.push_back(next_in++);
    while (d.size() > 3) {
      EXPECT_EQ(d.front(), next_out++);
      d.pop_front();
    }
  }
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0], next_out);
  EXPECT_EQ(d.back(), next_in - 1);
}

TEST(RingDequeTest, GrowthPreservesOrderWithOffsetHead) {
  RingDeque<int> d;
  for (int i = 0; i < 10; ++i) d.push_back(i);
  for (int i = 0; i < 10; ++i) d.pop_front();
  // head_ is now mid-buffer; force several capacity doublings.
  for (int i = 0; i < 1000; ++i) d.push_back(i);
  ASSERT_EQ(d.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(d[static_cast<size_t>(i)], i);
}

TEST(RingDequeTest, PushFrontPrecedesTheHeadAcrossWrapAndGrowth) {
  RingDeque<int> d;
  // From an empty deque head_ wraps to the last slot at once; the
  // sixteenth element fills the buffer and the seventeenth grows it.
  for (int i = 0; i < 20; ++i) d.push_front(i);
  d.push_back(-1);
  ASSERT_EQ(d.size(), 21u);
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ(d[i], 19 - static_cast<int>(i));
  EXPECT_EQ(d.back(), -1);
  for (int i = 19; i >= 0; --i) {
    EXPECT_EQ(d.front(), i);
    d.pop_front();
  }
  EXPECT_EQ(d.front(), -1);
}

TEST(RingDequeTest, CapacityIsSticky) {
  RingDeque<int> d;
  for (int i = 0; i < 100; ++i) d.push_back(i);
  const size_t high_water = d.capacity();
  d.clear();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.capacity(), high_water);  // No shrink: reach steady state once.
  for (int i = 0; i < 100; ++i) d.push_back(i);
  EXPECT_EQ(d.capacity(), high_water);
}

TEST(RingDequeTest, PopReleasesSlotResources) {
  RingDeque<std::shared_ptr<int>> d;
  auto p = std::make_shared<int>(7);
  d.push_back(p);
  EXPECT_EQ(p.use_count(), 2);
  d.pop_front();
  EXPECT_EQ(p.use_count(), 1);  // Slot must not pin the old value.
}

TEST(RingDequeTest, MovedFromIsEmptyAndReusable) {
  RingDeque<int> a;
  for (int i = 0; i < 20; ++i) a.push_back(i);
  a.pop_front();
  RingDeque<int> b = std::move(a);
  ASSERT_EQ(b.size(), 19u);
  EXPECT_EQ(b.front(), 1);
  EXPECT_EQ(b.back(), 19);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  a.clear();
  a.push_back(7);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.front(), 7);

  RingDeque<int> c;
  c.push_back(3);
  c = std::move(b);
  EXPECT_EQ(c.size(), 19u);
  EXPECT_EQ(c[18], 19);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  b.push_back(4);
  EXPECT_EQ(b.front(), 4);
}

TEST(SlidingWindowMeanTest, EvictsOldSamples) {
  SlidingWindowMean w(3.0);
  w.Add(0.0, 100.0);
  w.Add(1.0, 200.0);
  EXPECT_DOUBLE_EQ(w.MeanAt(1.0), 150.0);
  // At t=3.5, the t=0 sample (age 3.5) is out; t=1 (age 2.5) remains.
  EXPECT_DOUBLE_EQ(w.MeanAt(3.5), 200.0);
  // At t=4.5 everything is out; fallback applies.
  EXPECT_DOUBLE_EQ(w.MeanAt(4.5, 42.0), 42.0);
}

TEST(SlidingWindowMeanTest, CountTracksWindow) {
  SlidingWindowMean w(2.0);
  for (int i = 0; i < 10; ++i) w.Add(i * 0.5, 1.0);
  EXPECT_EQ(w.CountAt(4.5), 4u);  // Samples at 3.0, 3.5, 4.0, 4.5.
}

TEST(PercentileTrackerTest, NearestRank) {
  PercentileTracker p;
  for (int i = 1; i <= 100; ++i) p.Add(i);
  EXPECT_EQ(p.Percentile(50), 50.0);
  EXPECT_EQ(p.Percentile(99), 99.0);
  EXPECT_EQ(p.Percentile(100), 100.0);
  EXPECT_EQ(p.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.Mean(), 50.5);
}

TEST(PercentileTrackerTest, EmptyReturnsZero) {
  PercentileTracker p;
  EXPECT_EQ(p.Percentile(99), 0.0);
  EXPECT_EQ(p.Mean(), 0.0);
}

// ---------------------------------------------------------------- Checksum

TEST(ChecksumTest, Crc32cKnownVector) {
  // "123456789" -> 0xE3069283 (CRC-32C check value).
  const char* data = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(data), 9),  // NOLINT(slacker-wire-decode)
            0xE3069283u);
}

// Bytewise reference: one table lookup per byte, the implementation
// slice-by-8 replaced.
uint32_t BytewiseCrc32c(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78 : crc >> 1;
    }
    table[i] = crc;
  }
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

TEST(ChecksumTest, Crc32cMatchesBytewiseReference) {
  Rng rng(99);
  std::vector<uint8_t> buffer(4096 + 16);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.Next());
  for (int trial = 0; trial < 2000; ++trial) {
    // Random alignment within an 8-byte word, random length (including
    // the sub-word tails), random seed.
    const size_t offset = rng.NextBelow(16);
    const size_t len = trial < 64 ? trial : rng.NextBelow(4096);
    const uint32_t seed =
        trial % 2 == 0 ? 0 : static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32c(buffer.data() + offset, len, seed),
              BytewiseCrc32c(buffer.data() + offset, len, seed))
        << "offset " << offset << " len " << len << " seed " << seed;
  }
}

// Both Crc32c paths against the bytewise reference: every length from
// 0 to 64 and 4 KiB, at each offset within a word, each call seeded
// with the previous one's CRC (a chunk checksummed in pieces).
TEST(ChecksumTest, HardwareAndPortableCrc32cMatchBytewiseReference) {
  Rng rng(7);
  std::vector<uint8_t> buffer(4096 + 8);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.Next());
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 64; ++len) lengths.push_back(len);
  lengths.push_back(4096);
  using CrcFn = uint32_t (*)(const uint8_t*, size_t, uint32_t);
  std::vector<std::pair<const char*, CrcFn>> paths = {
      {"portable", &Crc32cPortable}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    paths.emplace_back("hardware", &Crc32cHardware);
  }
#endif
  for (const auto& [name, crc_fn] : paths) {
    uint32_t chained = 0;
    uint32_t expected_chained = 0;
    for (size_t offset = 0; offset < 8; ++offset) {
      for (const size_t len : lengths) {
        const uint8_t* data = buffer.data() + offset;
        ASSERT_EQ(crc_fn(data, len, 0), BytewiseCrc32c(data, len, 0))
            << name << " offset " << offset << " len " << len;
        chained = crc_fn(data, len, chained);
        expected_chained = BytewiseCrc32c(data, len, expected_chained);
        ASSERT_EQ(chained, expected_chained)
            << name << " chained, offset " << offset << " len " << len;
      }
    }
  }
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("sse4.2")) {
    GTEST_SKIP() << "no SSE4.2: only the portable path ran";
  }
#endif
}

TEST(ChecksumTest, Crc32cDetectsBitFlip) {
  std::vector<uint8_t> data(100, 0x55);
  const uint32_t clean = Crc32c(data);
  data[50] ^= 1;
  EXPECT_NE(Crc32c(data), clean);
}

TEST(ChecksumTest, Fnv1aDistinctInputsDistinctHashes) {
  const uint8_t a[] = {1, 2, 3};
  const uint8_t b[] = {1, 2, 4};
  EXPECT_NE(Fnv1a64(a, 3), Fnv1a64(b, 3));
}

TEST(ChecksumTest, HashCombineOrderSensitive) {
  uint64_t d1 = HashCombine(HashCombine(0, 1), 2);
  uint64_t d2 = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(d1, d2);
}

TEST(ChecksumTest, HashCombineMatchesBytewiseFnv) {
  // The reference: FNV-1a over the value's 8 little-endian bytes, the
  // definition the significant-bytes shortcut must reproduce.
  const auto reference = [](uint64_t digest, uint64_t value) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<uint8_t>(value >> (8 * i));
    }
    return Fnv1a64(bytes, sizeof(bytes), digest);
  };
  Rng rng(27);
  std::vector<uint64_t> values = {0, 1, 0xff, 0x100, UINT64_MAX,
                                  0x8000000000000000ULL,
                                  0x0100000000000001ULL,  // Zeros inside.
                                  0x00ff0000ff000000ULL};
  for (int width = 0; width <= 8; ++width) {
    for (int trial = 0; trial < 200; ++trial) {
      // Exactly `width` significant bytes: top byte nonzero, the rest
      // random, with about half of the lower bytes forced to zero.
      uint64_t value = 0;
      for (int b = 0; b < width; ++b) {
        uint64_t byte = rng.NextBelow(256);
        if (b == width - 1) {
          byte = 1 + rng.NextBelow(255);
        } else if (rng.NextDouble() < 0.5) {
          byte = 0;
        }
        value |= byte << (8 * b);
      }
      values.push_back(value);
    }
  }
  for (uint64_t value : values) {
    for (uint64_t digest :
         {uint64_t{0}, uint64_t{0xcbf29ce484222325ULL}, UINT64_MAX,
          rng.Next()}) {
      ASSERT_EQ(HashCombine(digest, value), reference(digest, value))
          << "digest " << digest << " value " << value;
    }
  }
}

// ---------------------------------------------------------------- Units

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(MsFromSeconds(1.5), 1500.0);
  EXPECT_DOUBLE_EQ(BytesPerSecFromMBps(1.0), 1048576.0);
  EXPECT_DOUBLE_EQ(MBpsFromBytesPerSec(BytesPerSecFromMBps(12.5)), 12.5);
}

}  // namespace
}  // namespace slacker
