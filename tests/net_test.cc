// Tests for the wire framing, the migration message codec, and the
// simulated channel.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/net/channel.h"
#include "src/net/message.h"
#include "src/net/wire.h"
#include "src/resource/network_link.h"
#include "src/sim/simulator.h"

namespace slacker::net {
namespace {

// ---------------------------------------------------------------- Frame

TEST(WireTest, FrameRoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const auto frame = EncodeFrame(payload);
  EXPECT_EQ(frame.size(), payload.size() + kFrameHeaderBytes);
  const uint8_t* out = nullptr;
  size_t length = 0;
  ASSERT_TRUE(CheckFrame(frame, &out, &length).ok());
  EXPECT_EQ(std::vector<uint8_t>(out, out + length), payload);
}

TEST(WireTest, EmptyPayload) {
  const uint8_t* out = nullptr;
  size_t length = 1;
  ASSERT_TRUE(CheckFrame(EncodeFrame({}), &out, &length).ok());
  EXPECT_EQ(length, 0u);
}

TEST(WireTest, CorruptedPayloadDetected) {
  auto frame = EncodeFrame({1, 2, 3, 4});
  frame[kFrameHeaderBytes + 1] ^= 0x40;
  const uint8_t* out = nullptr;
  size_t length = 0;
  EXPECT_EQ(CheckFrame(frame, &out, &length).code(), StatusCode::kCorruption);
}

TEST(WireTest, BadMagicDetected) {
  auto frame = EncodeFrame({1});
  frame[0] ^= 0xff;
  const uint8_t* out = nullptr;
  size_t length = 0;
  EXPECT_EQ(CheckFrame(frame, &out, &length).code(), StatusCode::kCorruption);
}

TEST(WireTest, LengthMismatchDetected) {
  auto frame = EncodeFrame({1, 2, 3});
  frame.pop_back();
  const uint8_t* out = nullptr;
  size_t length = 0;
  EXPECT_EQ(CheckFrame(frame, &out, &length).code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------- Message

Message FullMessage() {
  Message m;
  m.type = MessageType::kSnapshotChunk;
  m.tenant_id = 5;
  m.target_server = 2;
  m.lsn = 12345;
  m.chunk_seq = 17;
  m.payload_bytes = 1 << 20;
  m.digest = 0xfeedface;
  m.error = "none";
  m.config.page_bytes = 16384;
  m.config.record_bytes = 1024;
  m.config.record_count = 1u << 20;
  m.config.buffer_pool_bytes = 128u << 20;
  m.config.cpu_per_op = 0.0003;
  m.config.commit_latency = 0.0005;
  for (uint64_t i = 0; i < 50; ++i) {
    m.rows.push_back(storage::Record{i, i + 1, i * 31});
  }
  wal::LogRecord log;
  log.lsn = 99;
  log.type = wal::LogType::kUpdate;
  log.key = 3;
  log.digest = 42;
  m.log_records.push_back(log);
  return m;
}

TEST(MessageTest, RoundTripAllFields) {
  const Message m = FullMessage();
  Message out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(m), &out).ok());
  EXPECT_EQ(out, m);
}

TEST(MessageTest, RoundTripEveryType) {
  for (int t = 1; t <= 12; ++t) {
    Message m;
    m.type = static_cast<MessageType>(t);
    m.tenant_id = 9;
    Message out;
    ASSERT_TRUE(DecodeMessage(EncodeMessage(m), &out).ok()) << t;
    EXPECT_EQ(out.type, m.type);
  }
}

TEST(MessageTest, CorruptionDetected) {
  auto frame = EncodeMessage(FullMessage());
  frame[frame.size() / 2] ^= 0x10;
  Message out;
  EXPECT_FALSE(DecodeMessage(frame, &out).ok());
}

// Every tenant's rows use storage::kValueSeed, so the config's seed
// slot is fixed: the constant in a migration request, 0 elsewhere. A
// frame whose slot disagrees with its type is corrupt.
TEST(MessageTest, ValueSeedSlotChecked) {
  Message request;
  request.type = MessageType::kMigrateRequest;
  request.tenant_id = 4;
  for (const Message& m : {FullMessage(), request}) {
    const std::vector<uint8_t> frame = EncodeMessage(m);
    const uint8_t* start = nullptr;
    size_t length = 0;
    ASSERT_TRUE(CheckFrame(frame, &start, &length).ok());
    std::vector<uint8_t> payload(start, start + length);
    // Swap the type byte between a request and a snapshot chunk,
    // leaving the seed slot as the original type wrote it.
    payload[0] = static_cast<uint8_t>(
        m.type == MessageType::kMigrateRequest ? MessageType::kSnapshotChunk
                                               : MessageType::kMigrateRequest);
    Message out;
    EXPECT_EQ(DecodeMessage(EncodeFrame(payload), &out).code(),
              StatusCode::kCorruption);
  }
}

TEST(MessageTest, FuzzDecodeNeverCrashes) {
  Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.NextBelow(200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Next());
    Message out;
    // Must return an error, never crash or loop.
    EXPECT_FALSE(DecodeMessage(junk, &out).ok());
  }
}

TEST(MessageTest, TruncatedFramesRejected) {
  const auto frame = EncodeMessage(FullMessage());
  for (size_t len : {size_t{0}, size_t{4}, size_t{11}, frame.size() - 1}) {
    std::vector<uint8_t> cut(frame.begin(), frame.begin() + len);
    Message out;
    EXPECT_FALSE(DecodeMessage(cut, &out).ok()) << len;
  }
}

// A snapshot chunk whose rows' keys and LSNs take every varint width
// from one byte to ten, cut at every byte of its payload and framed
// again with a valid CRC: the row decoder must see each cut. Cuts of
// the frame itself fail the frame check.
TEST(MessageTest, SnapshotChunkTruncatedAtEveryByteIsCorruption) {
  Message m;
  m.type = MessageType::kSnapshotChunk;
  m.tenant_id = 3;
  m.chunk_seq = 4;
  m.payload_bytes = 24 * 1024;
  m.chunk_crc = 0x5eed;
  for (uint64_t i = 0; i < 24; ++i) {
    const uint64_t key = i < 10 ? (uint64_t{1} << (7 * i)) + i : UINT64_MAX - i;
    m.rows.push_back(storage::Record{key, (key >> 3) ^ i, key * 31});
  }
  const std::vector<uint8_t> frame = EncodeMessage(m);
  Message out;
  ASSERT_TRUE(DecodeMessage(frame, &out).ok());
  ASSERT_EQ(out, m);
  const std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                                     frame.end());
  for (size_t len = 0; len < payload.size(); ++len) {
    const std::vector<uint8_t> cut(payload.begin(), payload.begin() + len);
    EXPECT_EQ(DecodeMessage(EncodeFrame(cut), &out).code(),
              StatusCode::kCorruption)
        << "payload cut at " << len;
  }
  for (size_t len = 0; len < frame.size(); ++len) {
    const std::vector<uint8_t> cut(frame.begin(), frame.begin() + len);
    EXPECT_EQ(DecodeMessage(cut, &out).code(), StatusCode::kCorruption)
        << "frame cut at " << len;
  }
}

// ------------------------------------------------------ Codec extension

Message LzMessage() {
  Message m = FullMessage();
  m.frame.codec = codec::Codec::kLz;
  m.frame.logical_bytes = 4096;
  m.frame.encoded_bytes = 1024;
  m.frame.payload_crc = 0xabad1dea;
  m.frame.payload_redundancy = 0.5;
  return m;
}

// A frame whose CRC holds but whose last count (log records, or the
// codec extension's reserved count) claims 2^62 entries: the decoder
// must report Corruption before it sizes anything by that count.
TEST(MessageTest, CountsBeyondThePayloadAreCorruption) {
  Message plain;
  plain.type = MessageType::kDeltaBatch;
  for (const Message& m : {plain, LzMessage()}) {
    const std::vector<uint8_t> frame = EncodeMessage(m);
    std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                                 frame.end());
    ASSERT_EQ(payload.back(), 0u);  // The count, last in the payload.
    payload.pop_back();
    ByteWriter count;
    count.PutVarint64(uint64_t{1} << 62);
    payload.insert(payload.end(), count.data().begin(), count.data().end());
    Message out;
    EXPECT_EQ(DecodeMessage(EncodeFrame(payload), &out).code(),
              StatusCode::kCorruption);
  }
}

// A tenant's keys are fixed at load, so a log record is an update or a
// commit. A delta batch carrying a record of type 1 or 3 (no longer
// assigned) is corrupt, however well framed.
TEST(MessageTest, DeltaBatchWithUnassignedLogTypeIsCorruption) {
  Message batch;
  batch.type = MessageType::kDeltaBatch;
  batch.tenant_id = 5;
  wal::LogRecord record;
  record.type = wal::LogType::kUpdate;
  record.lsn = 9;
  record.key = 42;
  record.digest = 0xfeedface;
  batch.log_records = {record};
  Message out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(batch), &out).ok());
  EXPECT_EQ(out, batch);
  for (const uint8_t type_byte : {1, 3}) {
    batch.log_records.front().type = static_cast<wal::LogType>(type_byte);
    EXPECT_EQ(DecodeMessage(EncodeMessage(batch), &out).code(),
              StatusCode::kCorruption)
        << "type " << int{type_byte};
  }
}

TEST(MessageTest, CodecFrameRoundTrip) {
  const Message m = LzMessage();
  Message out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(m), &out).ok());
  EXPECT_EQ(out, m);
  EXPECT_EQ(out.wire_payload_bytes(), m.frame.encoded_bytes);
}

// LzMessage()'s frame with its codec extension written by hand, with a
// valid header CRC: `codec_byte`, the reserved word after payload_crc,
// and the reserved count after the header followed by that many keys.
std::vector<uint8_t> HandWrittenLzFrame(uint8_t codec_byte,
                                        uint32_t reserved_word,
                                        uint64_t reserved_count) {
  const Message m = LzMessage();
  const std::vector<uint8_t> raw_frame = EncodeMessage(FullMessage());
  const uint8_t* start = nullptr;
  size_t length = 0;
  EXPECT_TRUE(CheckFrame(raw_frame, &start, &length).ok());
  ByteWriter writer;
  writer.PutBytes(start, length);
  const size_t header_start = writer.size();
  writer.PutU8(codec::kCodecFrameMagic);
  writer.PutU8(1);  // Version.
  writer.PutU8(codec_byte);
  writer.PutVarint64(m.frame.logical_bytes);
  writer.PutVarint64(m.frame.encoded_bytes);
  writer.PutFixed32(m.frame.payload_crc);
  writer.PutFixed32(reserved_word);
  writer.PutDouble(m.frame.payload_redundancy);
  writer.PutFixed32(Crc32c(writer.data().data() + header_start,
                           writer.size() - header_start));
  writer.PutVarint64(reserved_count);
  for (uint64_t i = 0; i < reserved_count; ++i) writer.PutVarint64(i + 7);
  return EncodeFrame(writer.data());
}

// Only kLz frames exist, and both reserved fields are written as 0:
// codec byte 2 and a nonzero reserved word or count are corruption,
// even under a valid header CRC.
TEST(MessageTest, UnknownCodecOrNonzeroReservedFieldIsCorruption) {
  ASSERT_EQ(HandWrittenLzFrame(1, 0, 0), EncodeMessage(LzMessage()));
  struct Case {
    const char* what;
    uint8_t codec_byte;
    uint32_t reserved_word;
    uint64_t reserved_count;
  } kCases[] = {{"codec byte 2", 2, 0, 0},
                {"reserved word", 1, 0x1234abcd, 0},
                {"reserved count 1", 1, 0, 1},
                {"reserved count 3", 1, 0, 3}};
  for (const Case& c : kCases) {
    Message out;
    EXPECT_EQ(DecodeMessage(HandWrittenLzFrame(c.codec_byte, c.reserved_word,
                                               c.reserved_count),
                            &out)
                  .code(),
              StatusCode::kCorruption)
        << c.what;
  }
}

TEST(MessageTest, RawFramesCarryNoCodecExtension) {
  // A default (raw) message must encode byte-identically to the
  // pre-codec format; the golden traces depend on it.
  const Message raw = FullMessage();
  const Message lz = LzMessage();
  EXPECT_LT(EncodeMessage(raw).size(), EncodeMessage(lz).size());
  Message out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(raw), &out).ok());
  EXPECT_EQ(out.frame.codec, codec::Codec::kRaw);
  EXPECT_EQ(out.wire_payload_bytes(), raw.payload_bytes);
}

TEST(MessageTest, RandomizedCodecRoundTripProperty) {
  // Property test: random seeded payloads round-trip exactly; any
  // truncation is rejected; any single-byte corruption is rejected by
  // the frame CRC.
  Rng rng(0xc0dec);
  for (int trial = 0; trial < 200; ++trial) {
    Message m;
    m.type = MessageType::kSnapshotChunk;
    m.tenant_id = rng.NextBelow(1000);
    m.chunk_seq = rng.NextBelow(10000);
    m.payload_bytes = rng.NextBelow(1u << 22);
    m.chunk_crc = static_cast<uint32_t>(rng.Next());
    const uint64_t row_count = rng.NextBelow(40);
    for (uint64_t i = 0; i < row_count; ++i) {
      m.rows.push_back(storage::Record{rng.Next(), rng.Next(), rng.Next()});
    }
    if (rng.NextBelow(2) != 0) {
      m.frame.codec = codec::Codec::kLz;
      m.frame.logical_bytes = m.payload_bytes;
      m.frame.encoded_bytes = rng.NextBelow(m.payload_bytes + 1);
      m.frame.payload_crc = static_cast<uint32_t>(rng.Next());
      m.frame.payload_redundancy = rng.NextDouble();
    }
    const std::vector<uint8_t> frame = EncodeMessage(m);
    Message out;
    ASSERT_TRUE(DecodeMessage(frame, &out).ok()) << trial;
    EXPECT_EQ(out, m) << trial;

    std::vector<uint8_t> cut(frame.begin(),
                             frame.begin() + rng.NextBelow(frame.size()));
    Message cut_out;
    EXPECT_FALSE(DecodeMessage(cut, &cut_out).ok()) << trial;

    std::vector<uint8_t> flipped = frame;
    flipped[rng.NextBelow(flipped.size())] ^=
        static_cast<uint8_t>(1u << rng.NextBelow(8));
    Message flipped_out;
    EXPECT_FALSE(DecodeMessage(flipped, &flipped_out).ok()) << trial;
  }
}

// ------------------------------------------------ Range extension

Message RangeRequest(uint64_t lo, uint64_t hi) {
  Message m;
  m.type = MessageType::kMigrateRequest;
  m.tenant_id = 4;
  m.range_lo = lo;
  m.range_hi = hi;
  return m;
}

// `m`'s frame with `range_lo`/`range_hi` appended as one more range
// extension, reframed so the CRC still holds.
std::vector<uint8_t> WithRangeExtension(const Message& m, uint64_t range_lo,
                                        uint64_t range_hi) {
  const std::vector<uint8_t> frame = EncodeMessage(m);
  const uint8_t* start = nullptr;
  size_t length = 0;
  EXPECT_TRUE(CheckFrame(frame, &start, &length).ok());
  std::vector<uint8_t> payload(start, start + length);
  ByteWriter writer;
  writer.PutU8(kRangeScopeMagic);
  writer.PutVarint64(range_lo);
  writer.PutVarint64(range_hi);
  payload.insert(payload.end(), writer.data().begin(), writer.data().end());
  return EncodeFrame(payload);
}

TEST(RangeExtensionTest, PartialRangeRoundTrips) {
  const std::pair<uint64_t, uint64_t> kRanges[] = {
      {0, 100}, {32768, UINT64_MAX}, {7, 8}};
  for (const auto& [lo, hi] : kRanges) {
    const Message m = RangeRequest(lo, hi);
    ASSERT_TRUE(m.partial_range());
    Message out;
    ASSERT_TRUE(DecodeMessage(EncodeMessage(m), &out).ok());
    EXPECT_EQ(out, m);
  }
}

TEST(RangeExtensionTest, FullRangeEncodesNothing) {
  // A whole-tenant request must encode to the bytes of a message that
  // never set a range; the golden traces depend on it.
  Message unset;
  unset.type = MessageType::kMigrateRequest;
  unset.tenant_id = 4;
  const Message full = RangeRequest(0, UINT64_MAX);
  EXPECT_FALSE(full.partial_range());
  EXPECT_EQ(EncodeMessage(full), EncodeMessage(unset));
  EXPECT_LT(EncodeMessage(unset).size(),
            EncodeMessage(RangeRequest(0, 100)).size());
}

TEST(RangeExtensionTest, DuplicateExtensionRejected) {
  Message out;
  ASSERT_TRUE(
      DecodeMessage(WithRangeExtension(RangeRequest(0, UINT64_MAX), 0, 100),
                    &out)
          .ok());
  EXPECT_EQ(DecodeMessage(WithRangeExtension(RangeRequest(0, 100), 0, 100),
                          &out)
                .code(),
            StatusCode::kCorruption);
}

TEST(RangeExtensionTest, FullOrEmptyRangeExtensionRejected) {
  const Message unset = RangeRequest(0, UINT64_MAX);
  Message out;
  const std::pair<uint64_t, uint64_t> kBad[] = {
      {0, UINT64_MAX}, {100, 100}, {9, 3}};
  for (const auto& [lo, hi] : kBad) {
    EXPECT_EQ(DecodeMessage(WithRangeExtension(unset, lo, hi), &out).code(),
              StatusCode::kCorruption)
        << lo << ", " << hi;
  }
}

// EncodeMessage writes the payload straight into its frame, reserved
// once from a closed-form size; the bytes must be those of framing the
// payload in a second step.
TEST(MessageTest, EncodeMessageEqualsTwoStepFraming) {
  std::vector<Message> messages = {Message(), FullMessage(), LzMessage(),
                                   RangeRequest(7, 8)};
  // Every extension at once, with fields at multi-byte varint widths
  // and an error string whose length takes two varint bytes.
  Message wide = LzMessage();
  wide.type = MessageType::kMigrateAbort;
  wide.tenant_id = UINT64_MAX;
  wide.target_server = 128;
  wide.lsn = uint64_t{1} << 35;
  wide.resume = true;
  wide.resume_key = 16383;
  wide.error = std::string(300, 'e');
  wide.frame.logical_bytes = UINT64_MAX;
  wide.frame.encoded_bytes = 16384;
  wide.negotiation.software_version = UINT32_MAX;
  wide.negotiation.feature_mask = FeatureMaskForVersion(3);
  wide.range_lo = 1;
  wide.range_hi = UINT64_MAX - 1;
  wal::LogRecord commit;
  commit.type = wal::LogType::kCommit;
  commit.lsn = UINT64_MAX;
  commit.txn_id = 200;
  commit.key = 1u << 21;
  wide.log_records.push_back(commit);
  messages.push_back(wide);
  for (size_t c = 0; c < messages.size(); ++c) {
    const std::vector<uint8_t> frame = EncodeMessage(messages[c]);
    const uint8_t* start = nullptr;
    size_t length = 0;
    ASSERT_TRUE(CheckFrame(frame, &start, &length).ok()) << c;
    EXPECT_EQ(frame, EncodeFrame(std::vector<uint8_t>(start, start + length)))
        << c;
    Message out;
    ASSERT_TRUE(DecodeMessage(frame, &out).ok()) << c;
    EXPECT_EQ(out, messages[c]) << c;
    // An exact reserve leaves no spare capacity; a short one would
    // have regrown the buffer past its size.
    EXPECT_EQ(frame.capacity(), frame.size()) << c;
  }
}

// ------------------------------------------- Capability negotiation

TEST(NegotiationTest, MessageRoundTripCarriesVersionAndMask) {
  Message m = FullMessage();
  m.negotiation.software_version = 3;
  m.negotiation.feature_mask = FeatureMaskForVersion(3);
  Message out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(m), &out).ok());
  EXPECT_EQ(out.negotiation, m.negotiation);
}

TEST(NegotiationTest, LegacyMessageIsByteIdenticalToPreVersioningWire) {
  // Version 0 ("legacy") must encode to exactly the bytes a build
  // without negotiation produced — golden fig12 digests depend on it.
  Message legacy = FullMessage();
  legacy.negotiation = NegotiationInfo();
  Message versioned = legacy;
  versioned.negotiation.software_version = 2;
  versioned.negotiation.feature_mask = FeatureMaskForVersion(2);
  const auto legacy_frame = EncodeMessage(legacy);
  const auto versioned_frame = EncodeMessage(versioned);
  EXPECT_NE(legacy_frame, versioned_frame);
  Message out;
  ASSERT_TRUE(DecodeMessage(legacy_frame, &out).ok());
  EXPECT_EQ(out.negotiation.software_version, 0u);
}

TEST(NegotiationTest, TruncatedExtensionRejected) {
  ByteWriter writer;
  NegotiationInfo info;
  info.software_version = 7;
  info.feature_mask = kFeatureLz | kFeatureAdaptive;
  info.EncodeTo(&writer);
  const std::vector<uint8_t>& bytes = writer.data();
  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader reader(bytes.data(), len);
    NegotiationInfo out;
    EXPECT_FALSE(out.DecodeFrom(&reader).ok()) << "len=" << len;
  }
  ByteReader whole(bytes);
  NegotiationInfo out;
  ASSERT_TRUE(out.DecodeFrom(&whole).ok());
  EXPECT_EQ(out, info);
}

TEST(NegotiationTest, CorruptExtensionRejected) {
  ByteWriter writer;
  NegotiationInfo info;
  info.software_version = 1234;
  info.feature_mask = 0xf00dull;
  info.EncodeTo(&writer);
  // Any single-bit flip must fail the magic check or the CRC.
  for (size_t i = 0; i < writer.data().size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = writer.data();
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      ByteReader reader(mutated);
      NegotiationInfo out;
      EXPECT_FALSE(out.DecodeFrom(&reader).ok())
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(NegotiationTest, OverlongVarintRejectedDespiteItsCrc) {
  // software_version = 7 as the overlong varint 0x87 0x00, with a CRC
  // over exactly these bytes: not what EncodeTo writes.
  ByteWriter writer;
  writer.PutU8(kNegotiationMagic);
  writer.PutU8(0x87);
  writer.PutU8(0x00);
  writer.PutVarint64(kFeatureLz);
  writer.PutFixed32(Crc32c(writer.data()));
  ByteReader reader(writer.data());
  NegotiationInfo out;
  EXPECT_EQ(out.DecodeFrom(&reader).code(), StatusCode::kCorruption);
}

TEST(NegotiationTest, MixedVersionPairsAlwaysAgreeOnASupportedCodec) {
  const codec::CodecMode kModes[] = {
      codec::CodecMode::kRaw, codec::CodecMode::kLz,
      codec::CodecMode::kAdaptive};
  for (uint32_t sv = 0; sv <= 5; ++sv) {
    for (uint32_t tv = 0; tv <= 5; ++tv) {
      const uint64_t smask = FeatureMaskForVersion(sv);
      const uint64_t tmask = FeatureMaskForVersion(tv);
      for (const codec::CodecMode requested : kModes) {
        const codec::CodecMode mode =
            NegotiatedCodecMode(requested, sv, smask, tv, tmask);
        if (sv == 0 || tv == 0) {
          // Legacy handshake: the requested mode stands.
          EXPECT_EQ(mode, requested) << sv << "/" << tv;
          continue;
        }
        // Never fails, and never picks a feature either side lacks.
        const uint64_t common = smask & tmask;
        if (mode == codec::CodecMode::kLz ||
            mode == codec::CodecMode::kAdaptive) {
          EXPECT_TRUE(common & kFeatureLz) << sv << "/" << tv;
        }
        if (mode == codec::CodecMode::kAdaptive) {
          EXPECT_TRUE(common & kFeatureAdaptive) << sv << "/" << tv;
        }
        // Deterministic: same inputs, same answer.
        EXPECT_EQ(mode, NegotiatedCodecMode(requested, sv, smask, tv, tmask));
        // Symmetric: swapping source and target cannot change it.
        EXPECT_EQ(mode, NegotiatedCodecMode(requested, tv, tmask, sv, smask))
            << sv << "/" << tv;
        // Downgrades only relative to the request.
        if (requested == codec::CodecMode::kRaw) {
          EXPECT_EQ(mode, codec::CodecMode::kRaw);
        }
      }
    }
  }
}

// ---------------------------------------------------------------- Channel

TEST(ChannelTest, DeliversDecodedMessage) {
  sim::Simulator sim;
  resource::NetworkLink link(&sim, resource::NetworkLinkOptions{});
  Channel channel(&sim, &link);
  Message received;
  int count = 0;
  channel.OnMessage([&](const Message& m) {
    received = m;
    ++count;
  });
  const Message sent = FullMessage();
  channel.Send(sent);
  sim.RunUntil(1.0);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(received, sent);
}

TEST(ChannelTest, ChargesLogicalPayloadToWire) {
  sim::Simulator sim;
  resource::NetworkLinkOptions opts;
  opts.bandwidth_bytes_per_sec = 1.0 * kMiB;
  resource::NetworkLink link(&sim, opts);
  Channel channel(&sim, &link);
  double arrival = -1;
  channel.OnMessage([&](const Message&) { arrival = sim.Now(); });
  Message m;
  m.type = MessageType::kSnapshotChunk;
  m.payload_bytes = kMiB;  // Logical megabyte rides the wire.
  uint64_t sent_bytes = 0;
  channel.Send(m, &sent_bytes);
  sim.RunUntil(5.0);
  EXPECT_GE(sent_bytes, kMiB);
  EXPECT_GE(arrival, 1.0);  // At least the logical transfer time.
}

TEST(ChannelTest, PreservesOrder) {
  sim::Simulator sim;
  resource::NetworkLink link(&sim, resource::NetworkLinkOptions{});
  Channel channel(&sim, &link);
  std::vector<uint64_t> seqs;
  channel.OnMessage([&](const Message& m) { seqs.push_back(m.chunk_seq); });
  for (uint64_t i = 0; i < 10; ++i) {
    Message m;
    m.type = MessageType::kSnapshotChunk;
    m.chunk_seq = i;
    channel.Send(m);
  }
  sim.RunUntil(1.0);
  ASSERT_EQ(seqs.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(seqs[i], i);
}

}  // namespace
}  // namespace slacker::net
