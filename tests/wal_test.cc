// Tests for the binlog: record codec, LSN-range reads, truncation, and
// the idempotence / convergence properties of redo replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/random.h"
#include "src/storage/btree.h"
#include "src/wal/binlog.h"
#include "src/wal/log_record.h"
#include "src/wal/recovery.h"

namespace slacker::wal {
namespace {

LogRecord Update(storage::Lsn lsn, uint64_t key, uint64_t digest) {
  LogRecord r;
  r.lsn = lsn;
  r.type = LogType::kUpdate;
  r.key = key;
  r.digest = digest;
  return r;
}

LogRecord Delete(storage::Lsn lsn, uint64_t key) {
  LogRecord r;
  r.lsn = lsn;
  r.type = LogType::kDelete;
  r.key = key;
  return r;
}

LogRecord Commit(storage::Lsn lsn, uint64_t txn) {
  LogRecord r;
  r.lsn = lsn;
  r.type = LogType::kCommit;
  r.txn_id = txn;
  return r;
}

// ---------------------------------------------------------------- Codec

TEST(LogRecordTest, RoundTripAllTypes) {
  const std::vector<LogRecord> records = {
      Update(1, 42, 0xdeadbeef),
      Delete(2, 43),
      Commit(3, 99),
      [&] {
        LogRecord r = Update(4, 1, 2);
        r.type = LogType::kInsert;
        return r;
      }(),
  };
  for (const LogRecord& r : records) {
    ByteWriter w;
    r.EncodeTo(&w);
    ByteReader reader(w.data());
    LogRecord decoded;
    ASSERT_TRUE(LogRecord::DecodeFrom(&reader, &decoded).ok());
    EXPECT_EQ(decoded, r);
    EXPECT_TRUE(reader.exhausted());
  }
}

TEST(LogRecordTest, EncodedSizeMatchesEncoding) {
  LogRecord r = Update(1000000, 123456, 42);
  ByteWriter w;
  r.EncodeTo(&w);
  EXPECT_EQ(r.EncodedSize(), w.size());
}

// The closed-form count must agree with the encoder for every type and
// every varint length of each field: 0, 127/128 (one byte to two), each
// 2^(7k) - 1 / 2^(7k) step up to 2^63 (ten bytes), and UINT64_MAX.
TEST(LogRecordTest, EncodedSizeMatchesEncodingAtVarintBoundaries) {
  std::vector<uint64_t> values = {0};
  for (int bits = 7; bits <= 63; bits += 7) {
    values.push_back((uint64_t{1} << bits) - 1);
    values.push_back(uint64_t{1} << bits);
  }
  values.push_back(UINT64_MAX);
  for (LogType type : {LogType::kInsert, LogType::kUpdate, LogType::kDelete,
                       LogType::kCommit}) {
    for (uint64_t lsn : values) {
      for (uint64_t txn_id : values) {
        for (uint64_t key : values) {
          LogRecord r;
          r.type = type;
          r.lsn = lsn;
          r.txn_id = txn_id;
          r.key = key;
          r.digest = key;
          ByteWriter w;
          r.EncodeTo(&w);
          ASSERT_EQ(r.EncodedSize(), w.size())
              << "type " << static_cast<int>(type) << " lsn " << lsn
              << " txn " << txn_id << " key " << key;
        }
      }
    }
  }
}

TEST(LogRecordTest, DeleteOmitsDigest) {
  // A delete should encode smaller than an update (no 8-byte image).
  EXPECT_LT(Delete(1, 42).EncodedSize(), Update(1, 42, 7).EncodedSize());
}

TEST(LogRecordTest, BadTypeRejected) {
  ByteWriter w;
  w.PutU8(99);
  ByteReader reader(w.data());
  LogRecord r;
  EXPECT_EQ(LogRecord::DecodeFrom(&reader, &r).code(),
            StatusCode::kCorruption);
}

// ---------------------------------------------------------------- Binlog

TEST(BinlogTest, AppendAssignsRangeBookkeeping) {
  Binlog log;
  EXPECT_EQ(log.NextLsn(), 1u);
  ASSERT_TRUE(log.Append(Update(1, 10, 1)).ok());
  ASSERT_TRUE(log.Append(Update(2, 11, 2)).ok());
  EXPECT_EQ(log.last_lsn(), 2u);
  EXPECT_EQ(log.NextLsn(), 3u);
  EXPECT_EQ(log.record_count(), 2u);
  EXPECT_GT(log.total_bytes(), 0u);
}

TEST(BinlogTest, NonIncreasingLsnRejected) {
  Binlog log;
  ASSERT_TRUE(log.Append(Update(5, 1, 1)).ok());
  EXPECT_FALSE(log.Append(Update(5, 2, 2)).ok());
  EXPECT_FALSE(log.Append(Update(4, 2, 2)).ok());
}

TEST(BinlogTest, ReadRangeInclusive) {
  Binlog log;
  for (storage::Lsn lsn = 1; lsn <= 10; ++lsn) {
    ASSERT_TRUE(log.Append(Update(lsn, lsn, lsn)).ok());
  }
  std::vector<LogRecord> out;
  ASSERT_TRUE(log.ReadRange(3, 7, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.front().lsn, 3u);
  EXPECT_EQ(out.back().lsn, 7u);
}

TEST(BinlogTest, ReadRangeEmptyAndInverted) {
  Binlog log;
  ASSERT_TRUE(log.Append(Update(1, 1, 1)).ok());
  std::vector<LogRecord> out;
  ASSERT_TRUE(log.ReadRange(5, 4, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(log.ReadRange(2, 10, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(BinlogTest, BytesInRangeSumsEncodedSizes) {
  Binlog log;
  uint64_t expect = 0;
  for (storage::Lsn lsn = 1; lsn <= 5; ++lsn) {
    LogRecord r = Update(lsn, lsn * 1000, lsn);
    expect += r.EncodedSize();
    ASSERT_TRUE(log.Append(r).ok());
  }
  EXPECT_EQ(log.BytesInRange(1, 5), expect);
  EXPECT_EQ(log.BytesInRange(1, 5), log.total_bytes());
  EXPECT_LT(log.BytesInRange(2, 4), expect);
}

TEST(BinlogTest, TruncateDiscardsPrefix) {
  Binlog log;
  for (storage::Lsn lsn = 1; lsn <= 10; ++lsn) {
    ASSERT_TRUE(log.Append(Update(lsn, lsn, lsn)).ok());
  }
  log.Truncate(6);
  EXPECT_EQ(log.first_lsn(), 6u);
  EXPECT_EQ(log.record_count(), 5u);
  std::vector<LogRecord> out;
  // Purged range is an error.
  EXPECT_EQ(log.ReadRange(3, 7, &out).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(log.ReadRange(6, 10, &out).ok());
  EXPECT_EQ(out.size(), 5u);
}

// ---------------------------------------------------------------- Replay

TEST(ReplayTest, AppliesInsertsUpdatesDeletes) {
  storage::BTree table;
  ReplayStats stats;
  ASSERT_TRUE(Replay({Update(1, 5, 100), Update(2, 6, 200), Delete(3, 5),
                      Commit(4, 1)},
                     &table, &stats)
                  .ok());
  EXPECT_EQ(stats.applied, 3u);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Get(6)->digest, 200u);
  EXPECT_EQ(table.Get(5), nullptr);
}

TEST(ReplayTest, IdempotentOnRepeat) {
  storage::BTree table;
  const std::vector<LogRecord> batch = {Update(1, 5, 100), Update(2, 5, 200),
                                        Delete(3, 7)};
  ASSERT_TRUE(Replay(batch, &table).ok());
  const size_t size_after_first = table.size();
  const uint64_t digest_after_first = table.Get(5)->digest;
  ReplayStats stats;
  ASSERT_TRUE(Replay(batch, &table, &stats).ok());
  // The two updates are stale on the second pass; the delete of an
  // absent key re-applies as a no-op (no tombstone to compare against).
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.skipped_stale, 2u);
  EXPECT_EQ(table.size(), size_after_first);
  EXPECT_EQ(table.Get(5)->digest, digest_after_first);
}

TEST(ReplayTest, StaleVersionNeverRegresses) {
  storage::BTree table;
  table.Put(storage::Record{5, 10, 999});  // Newer than the log below.
  ReplayStats stats;
  ASSERT_TRUE(Replay({Update(3, 5, 100)}, &table, &stats).ok());
  EXPECT_EQ(stats.skipped_stale, 1u);
  EXPECT_EQ(table.Get(5)->digest, 999u);
}

TEST(ReplayTest, OverlappingRangesConverge) {
  // Replaying [1..6] then [4..9] must equal replaying [1..9] once —
  // the property the fuzzy snapshot + delta pipeline relies on.
  std::vector<LogRecord> all;
  Rng rng(77);
  for (storage::Lsn lsn = 1; lsn <= 9; ++lsn) {
    const uint64_t key = rng.NextBelow(4);
    if (rng.Bernoulli(0.25)) {
      all.push_back(Delete(lsn, key));
    } else {
      all.push_back(Update(lsn, key, lsn * 7));
    }
  }
  storage::BTree once, twice;
  ASSERT_TRUE(Replay(all, &once).ok());
  std::vector<LogRecord> first(all.begin(), all.begin() + 6);
  std::vector<LogRecord> second(all.begin() + 3, all.end());
  ASSERT_TRUE(Replay(first, &twice).ok());
  ASSERT_TRUE(Replay(second, &twice).ok());
  ASSERT_EQ(once.size(), twice.size());
  for (auto it = once.Begin(); it.Valid(); it.Next()) {
    const storage::Record* other = twice.Get(it.record().key);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(*other, it.record());
  }
}

class ReplayPermutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayPermutationTest, SplitPointsAllConverge) {
  // Any prefix/suffix split with overlap converges to the same state.
  Rng rng(GetParam());
  std::vector<LogRecord> all;
  for (storage::Lsn lsn = 1; lsn <= 60; ++lsn) {
    const uint64_t key = rng.NextBelow(10);
    if (rng.Bernoulli(0.2)) {
      all.push_back(Delete(lsn, key));
    } else {
      all.push_back(Update(lsn, key, rng.Next()));
    }
  }
  storage::BTree reference;
  ASSERT_TRUE(Replay(all, &reference).ok());
  for (size_t split : {10u, 30u, 50u}) {
    for (size_t overlap : {0u, 5u, 10u}) {
      storage::BTree t;
      const size_t back = split >= overlap ? split - overlap : 0;
      std::vector<LogRecord> a(all.begin(), all.begin() + split);
      std::vector<LogRecord> b(all.begin() + back, all.end());
      ASSERT_TRUE(Replay(a, &t).ok());
      ASSERT_TRUE(Replay(b, &t).ok());
      ASSERT_EQ(t.size(), reference.size());
      for (auto it = reference.Begin(); it.Valid(); it.Next()) {
        const storage::Record* got = t.Get(it.record().key);
        ASSERT_NE(got, nullptr);
        ASSERT_EQ(*got, it.record());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayPermutationTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace slacker::wal
