// Tests for the binlog: record codec, LSN-range reads against full
// records, and the idempotence / convergence properties of redo replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/storage/btree.h"
#include "src/storage/record.h"
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

// What the binlog returns for a row change: txn id 0 and, for an
// insert or update, the digest the engine wrote.
LogRecord Row(storage::Lsn lsn, LogType type, uint64_t key) {
  LogRecord r;
  r.lsn = lsn;
  r.type = type;
  r.key = key;
  if (type != LogType::kDelete) {
    r.digest = storage::RowDigest(key, lsn, storage::kValueSeed);
  }
  return r;
}

TEST(BinlogTest, AppendAssignsRangeBookkeeping) {
  Binlog log;
  EXPECT_EQ(log.last_lsn(), 0u);
  log.AppendRow(1, LogType::kUpdate, 10);
  log.AppendRow(2, LogType::kUpdate, 11);
  EXPECT_EQ(log.last_lsn(), 2u);
  EXPECT_EQ(log.record_count(), 2u);
  EXPECT_GT(log.total_bytes(), 0u);
}

TEST(BinlogTest, NonIncreasingLsnRejected) {
  Binlog log;
  log.AppendRow(5, LogType::kUpdate, 1);
  EXPECT_DEATH(log.AppendRow(5, LogType::kUpdate, 2),
               "binlog LSN not increasing");
  EXPECT_DEATH(log.AppendCommit(4, 2), "binlog LSN not increasing");
  EXPECT_DEATH(log.AppendRow(6, LogType::kCommit, 2), "not a row change");
}

TEST(BinlogTest, ReadRangeInclusive) {
  Binlog log;
  for (storage::Lsn lsn = 1; lsn <= 10; ++lsn) {
    log.AppendRow(lsn, LogType::kUpdate, lsn);
  }
  std::vector<LogRecord> out;
  log.ReadRange(3, 7, &out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.front(), Row(3, LogType::kUpdate, 3));
  EXPECT_EQ(out.back(), Row(7, LogType::kUpdate, 7));
}

TEST(BinlogTest, ReadRangeEmptyAndInverted) {
  Binlog log;
  log.AppendRow(1, LogType::kUpdate, 1);
  std::vector<LogRecord> out;
  log.ReadRange(5, 4, &out);
  EXPECT_TRUE(out.empty());
  log.ReadRange(2, 10, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BinlogTest, BytesInRangeSumsEncodedSizes) {
  Binlog log;
  uint64_t expect = 0;
  for (storage::Lsn lsn = 1; lsn <= 5; ++lsn) {
    expect += Row(lsn, LogType::kUpdate, lsn * 1000).EncodedSize();
    log.AppendRow(lsn, LogType::kUpdate, lsn * 1000);
  }
  EXPECT_EQ(log.BytesInRange(1, 5), expect);
  EXPECT_EQ(log.BytesInRange(1, 5), log.total_bytes());
  EXPECT_LT(log.BytesInRange(2, 4), expect);
}

// The binlog stores one word and one type byte per record and derives
// the rest. Against a plain vector of full records, every read must
// agree: seeded appends of all four types with LSN jumps (as after an
// ingest), read over ranges that start or end in a gap, before the
// first LSN, past the last, or inverted — on a log moved as crash
// recovery moves it.
class BinlogDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BinlogDifferentialTest, ReadsMatchFullRecords) {
  constexpr uint64_t kImageBytes = 1024;
  Rng rng(GetParam());
  Binlog log(kImageBytes);
  std::vector<LogRecord> reference;
  std::vector<uint64_t> reference_bytes;
  storage::Lsn lsn = 0;
  // Enough records to span several storage chunks.
  for (int i = 0; i < 3000; ++i) {
    lsn += rng.NextDouble() < 0.01 ? 2 + rng.NextBelow(1000) : 1;
    if (i == 0 && rng.NextDouble() < 0.5) lsn += 1000;
    const uint64_t word =
        rng.NextDouble() < 0.1 ? rng.Next() : rng.NextBelow(300);
    const auto type = static_cast<LogType>(1 + rng.NextBelow(4));
    LogRecord record;
    if (type == LogType::kCommit) {
      record = Commit(lsn, word);
      log.AppendCommit(lsn, word);
    } else {
      record = Row(lsn, type, word);
      log.AppendRow(lsn, type, word);
    }
    reference.push_back(record);
    const bool image = type == LogType::kInsert || type == LogType::kUpdate;
    reference_bytes.push_back(record.EncodedSize() +
                              (image ? kImageBytes : 0));
  }

  // A crash moves the log into durable state, and recovery moves it
  // back: the moved log must answer every read.
  const Binlog moved = std::move(log);
  uint64_t total = 0;
  for (uint64_t bytes : reference_bytes) total += bytes;
  EXPECT_EQ(moved.record_count(), reference.size());
  EXPECT_EQ(moved.total_bytes(), total);
  EXPECT_EQ(moved.last_lsn(), lsn);

  const storage::Lsn last = lsn;
  std::vector<LogRecord> out;
  std::vector<LogRecord> out2;
  std::vector<uint64_t> out_bytes;
  for (int q = 0; q < 400; ++q) {
    storage::Lsn from = rng.NextBelow(last + 50);
    storage::Lsn to = rng.NextBelow(last + 50);
    if (q % 4 != 0 && from > to) std::swap(from, to);  // Mostly forward.
    if (q == 0) to = UINT64_MAX;
    std::vector<LogRecord> want;
    std::vector<uint64_t> want_bytes;
    uint64_t want_sum = 0;
    for (size_t i = 0; i < reference.size(); ++i) {
      if (reference[i].lsn < from || reference[i].lsn > to) continue;
      want.push_back(reference[i]);
      want_bytes.push_back(reference_bytes[i]);
      want_sum += reference_bytes[i];
    }
    moved.ReadRange(from, to, &out);
    moved.ReadRange(from, to, &out2, &out_bytes);
    ASSERT_EQ(out, want) << "[" << from << ", " << to << "]";
    ASSERT_EQ(out2, want) << "[" << from << ", " << to << "]";
    ASSERT_EQ(out_bytes, want_bytes) << "[" << from << ", " << to << "]";
    ASSERT_EQ(moved.BytesInRange(from, to), want_sum)
        << "[" << from << ", " << to << "]";
    // A key window, as a range-scoped delta shipper counts it: commits
    // plus row changes of keys in [key_lo, key_hi), checked against
    // ReadRange and a filter. Windows cover empty, inverted, the small
    // keys most rows use, and the full key space.
    for (int w = 0; w < 4; ++w) {
      uint64_t key_lo = rng.NextBelow(320);
      uint64_t key_hi = rng.NextBelow(320);
      if (w == 1) key_hi = key_lo;
      if (w == 2) std::swap(key_lo, key_hi);
      if (w == 3) {
        key_lo = 0;
        key_hi = UINT64_MAX;
      }
      uint64_t want_filtered = 0;
      for (size_t i = 0; i < out2.size(); ++i) {
        if (out2[i].type == LogType::kCommit ||
            (out2[i].key >= key_lo && out2[i].key < key_hi)) {
          want_filtered += out_bytes[i];
        }
      }
      ASSERT_EQ(moved.BytesInRange(from, to, key_lo, key_hi), want_filtered)
          << "[" << from << ", " << to << "] keys [" << key_lo << ", "
          << key_hi << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinlogDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------- Replay

TEST(ReplayTest, AppliesInsertsUpdatesDeletes) {
  storage::BTree table;
  ReplayStats stats;
  Replay({Update(1, 5, 100), Update(2, 6, 200), Delete(3, 5), Commit(4, 1)},
         &table, &stats);
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
  Replay(batch, &table);
  const size_t size_after_first = table.size();
  const uint64_t digest_after_first = table.Get(5)->digest;
  ReplayStats stats;
  Replay(batch, &table, &stats);
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
  Replay({Update(3, 5, 100)}, &table, &stats);
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
    if (rng.NextDouble() < 0.25) {
      all.push_back(Delete(lsn, key));
    } else {
      all.push_back(Update(lsn, key, lsn * 7));
    }
  }
  storage::BTree once, twice;
  Replay(all, &once);
  std::vector<LogRecord> first(all.begin(), all.begin() + 6);
  std::vector<LogRecord> second(all.begin() + 3, all.end());
  Replay(first, &twice);
  Replay(second, &twice);
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
    if (rng.NextDouble() < 0.2) {
      all.push_back(Delete(lsn, key));
    } else {
      all.push_back(Update(lsn, key, rng.Next()));
    }
  }
  storage::BTree reference;
  Replay(all, &reference);
  for (size_t split : {10u, 30u, 50u}) {
    for (size_t overlap : {0u, 5u, 10u}) {
      storage::BTree t;
      const size_t back = split >= overlap ? split - overlap : 0;
      std::vector<LogRecord> a(all.begin(), all.begin() + split);
      std::vector<LogRecord> b(all.begin() + back, all.end());
      Replay(a, &t);
      Replay(b, &t);
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
