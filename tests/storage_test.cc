// Tests for buffer pool LRU behaviour, tablespace geometry, record
// digests, and the packed row codec of checkpoint images and staged
// snapshots.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/packed_rows.h"
#include "src/storage/record.h"
#include "src/storage/tablespace.h"

namespace slacker::storage {
namespace {

// ---------------------------------------------------------------- BufferPool

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(BufferPoolOptions{4});
  EXPECT_FALSE(pool.Touch(1, false).hit);
  EXPECT_TRUE(pool.Touch(1, false).hit);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_DOUBLE_EQ(pool.HitRate(), 0.5);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(BufferPoolOptions{3});
  pool.Touch(1, false);
  pool.Touch(2, false);
  pool.Touch(3, false);
  pool.Touch(1, false);  // 1 is now MRU; LRU order: 2, 3, 1.
  pool.Touch(4, false);  // Evicts 2.
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(3));
  EXPECT_TRUE(pool.Contains(4));
}

TEST(BufferPoolTest, DirtyEvictionReportsWriteback) {
  BufferPool pool(BufferPoolOptions{2});
  pool.Touch(1, true);  // Dirty.
  pool.Touch(2, false);
  const PageAccess access = pool.Touch(3, false);  // Evicts dirty page 1.
  EXPECT_TRUE(access.evicted_dirty);
  EXPECT_EQ(access.evicted_page, 1u);
  EXPECT_EQ(pool.dirty_pages(), 0u);
}

TEST(BufferPoolTest, CleanEvictionNoWriteback) {
  BufferPool pool(BufferPoolOptions{2});
  pool.Touch(1, false);
  pool.Touch(2, false);
  EXPECT_FALSE(pool.Touch(3, false).evicted_dirty);
}

TEST(BufferPoolTest, RedirtyingResidentPage) {
  BufferPool pool(BufferPoolOptions{4});
  pool.Touch(1, false);
  EXPECT_FALSE(pool.IsDirty(1));
  pool.Touch(1, true);
  EXPECT_TRUE(pool.IsDirty(1));
  EXPECT_EQ(pool.dirty_pages(), 1u);
  pool.Touch(1, true);  // Already dirty; count must not double.
  EXPECT_EQ(pool.dirty_pages(), 1u);
}


TEST(BufferPoolTest, CapacityNeverExceeded) {
  BufferPool pool(BufferPoolOptions{16});
  for (uint64_t p = 0; p < 1000; ++p) pool.Touch(p, p % 3 == 0);
  EXPECT_LE(pool.resident_pages(), 16u);
}

TEST(BufferPoolTest, SteadyStateHitRateMatchesResidentFraction) {
  // Uniform access over N pages with capacity C: hit rate ≈ C/N. This
  // is the mechanism behind the paper's 128 MB buffer / 1 GB tenant
  // disk pressure.
  const size_t capacity = 128, pages = 1024;
  BufferPool pool(BufferPoolOptions{capacity});
  uint64_t state = 88172645463325252ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 20000; ++i) pool.Touch(next() % pages, false);
  pool.ResetStats();
  for (int i = 0; i < 200000; ++i) pool.Touch(next() % pages, false);
  EXPECT_NEAR(pool.HitRate(), static_cast<double>(capacity) / pages, 0.01);
}

TEST(BufferPoolTest, ClearEmptiesPool) {
  BufferPool pool(BufferPoolOptions{4});
  pool.Touch(1, true);
  pool.Clear();
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_EQ(pool.dirty_pages(), 0u);
  EXPECT_FALSE(pool.Contains(1));
}

// Reference exact LRU on std::list: the specification the frame-array
// pool must reproduce access for access. A capacity-0 pool keeps the
// one page it last loaded, like capacity 1.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  PageAccess Touch(uint64_t page, bool make_dirty) {
    PageAccess result;
    const auto it = where_.find(page);
    if (it != where_.end()) {
      result.hit = true;
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->second |= make_dirty;
      return result;
    }
    if (!lru_.empty() && lru_.size() >= capacity_) {
      const auto [victim, dirty] = lru_.back();
      result.evicted_dirty = dirty;
      if (dirty) result.evicted_page = victim;
      where_.erase(victim);
      lru_.pop_back();
    }
    lru_.emplace_front(page, make_dirty);
    where_[page] = lru_.begin();
    return result;
  }

  size_t resident() const { return lru_.size(); }
  bool IsDirty(uint64_t page) const {
    const auto it = where_.find(page);
    return it != where_.end() && it->second->second;
  }
  size_t dirty() const {
    return std::count_if(lru_.begin(), lru_.end(),
                         [](const auto& frame) { return frame.second; });
  }

 private:
  size_t capacity_;
  std::list<std::pair<uint64_t, bool>> lru_;  // Front = most recent.
  std::map<uint64_t, std::list<std::pair<uint64_t, bool>>::iterator> where_;
};

TEST(BufferPoolTest, MatchesReferenceLruOnSeededStreams) {
  for (const size_t capacity : {0u, 1u, 7u, 512u}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      BufferPool pool(BufferPoolOptions{capacity});
      ReferenceLru reference(capacity);
      // Page ids as the engine forms them, (tenant << 40) | page, over a
      // working set about twice the capacity with a hot quarter, so hits,
      // clean and dirty evictions all occur.
      const uint64_t pages = 2 * capacity + 8;
      for (int i = 0; i < 20000; ++i) {
        const uint64_t page = rng.NextDouble() < 0.5
                                  ? rng.NextBelow(pages / 4 + 1)
                                  : rng.NextBelow(pages);
        const uint64_t page_id = (rng.NextBelow(3) << 40) | page;
        const bool dirty = rng.NextDouble() < 0.3;
        const PageAccess got = pool.Touch(page_id, dirty);
        const PageAccess want = reference.Touch(page_id, dirty);
        ASSERT_EQ(got.hit, want.hit) << "touch " << i;
        ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "touch " << i;
        ASSERT_EQ(got.evicted_page, want.evicted_page) << "touch " << i;
        ASSERT_EQ(pool.resident_pages(), reference.resident()) << "touch " << i;
        ASSERT_EQ(pool.dirty_pages(), reference.dirty()) << "touch " << i;
        ASSERT_TRUE(pool.Contains(page_id));
        ASSERT_EQ(pool.IsDirty(page_id), reference.IsDirty(page_id));
      }
    }
  }
}

// ---------------------------------------------------------------- Tablespace

TEST(TablespaceTest, DefaultGeometryIsOneGiB) {
  TablespaceLayout layout;
  EXPECT_EQ(layout.RecordsPerPage(), 16u);
  EXPECT_EQ(layout.record_count, kGiB / kKiB);
  EXPECT_EQ(layout.DataBytes(), kGiB);
}

TEST(TablespaceTest, PageOfMapsDenseKeys) {
  TablespaceLayout layout;
  EXPECT_EQ(layout.PageOf(0), 0u);
  EXPECT_EQ(layout.PageOf(15), 0u);
  EXPECT_EQ(layout.PageOf(16), 1u);
  EXPECT_EQ(layout.PageOf(31), 1u);
}

TEST(TablespaceTest, PagesForRoundsUp) {
  TablespaceLayout layout;
  EXPECT_EQ(layout.PagesFor(0), 0u);
  EXPECT_EQ(layout.PagesFor(1), 1u);
  EXPECT_EQ(layout.PagesFor(16), 1u);
  EXPECT_EQ(layout.PagesFor(17), 2u);
}

TEST(TablespaceTest, CustomGeometry) {
  TablespaceLayout layout;
  layout.page_bytes = 4 * kKiB;
  layout.record_bytes = 512;
  layout.record_count = 1000;
  EXPECT_EQ(layout.RecordsPerPage(), 8u);
  EXPECT_EQ(layout.TotalPages(), 125u);
  EXPECT_EQ(layout.DataBytes(), 125u * 4 * kKiB);
}

// ---------------------------------------------------------------- Record

TEST(RecordTest, RowDigestDependsOnAllInputs) {
  const uint64_t base = RowDigest(1, 2, 3);
  EXPECT_EQ(base, RowDigest(1, 2, 3));
  EXPECT_NE(base, RowDigest(2, 2, 3));
  EXPECT_NE(base, RowDigest(1, 3, 3));
  EXPECT_NE(base, RowDigest(1, 2, 4));
}

TEST(RecordTest, MaterializePayloadDeterministic) {
  Record r{42, 7, RowDigest(42, 7, 1)};
  const auto a = MaterializePayload(r, kKiB);
  const auto b = MaterializePayload(r, kKiB);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), kKiB);
  Record other{42, 8, RowDigest(42, 8, 1)};
  EXPECT_NE(MaterializePayload(other, kKiB), a);
}

// --- PackedRows -------------------------------------------------------

std::vector<Record> Decode(const PackedRows& packed) {
  std::vector<Record> rows;
  packed.ForEachBlock([&](const Record* block, size_t n) {
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, PackedRows::kBlockRows);
    // Every block but the last is full.
    EXPECT_EQ(rows.size() % PackedRows::kBlockRows, 0u);
    rows.insert(rows.end(), block, block + n);
  });
  return rows;
}

// `count` rows ascending from `first_key`. Gaps take a random bit width
// up to 55 bits, so 257 rows stay below 2^64; LSNs a random width up to
// 62 bits; about one row in ten has a digest that is not the derived
// one.
std::vector<Record> SeededRows(uint64_t seed, size_t count,
                               uint64_t first_key) {
  Rng rng(seed);
  std::vector<Record> rows;
  uint64_t key = first_key;
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) key += 1 + (rng.Next() >> (9 + rng.NextBelow(55)));
    const Lsn lsn = (rng.Next() >> 2) >> rng.NextBelow(63);
    const uint64_t digest = rng.NextBelow(10) == 0
                                ? rng.Next()
                                : RowDigest(key, lsn, kValueSeed);
    rows.push_back(Record{key, lsn, digest});
  }
  return rows;
}

void ExpectRoundTrip(const std::vector<Record>& rows) {
  PackedRows packed;
  packed.Append(rows.data(), rows.size());
  EXPECT_EQ(packed.size(), rows.size());
  EXPECT_EQ(packed.empty(), rows.empty());
  EXPECT_EQ(Decode(packed), rows);
  EXPECT_EQ(packed.front_key(), rows.empty() ? 0 : rows.front().key);
  EXPECT_EQ(packed.back_key(), rows.empty() ? 0 : rows.back().key);
}

class PackedRowsCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PackedRowsCountTest, SeededRowsRoundTrip) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    ExpectRoundTrip(SeededRows(seed, GetParam(), 0));
    ExpectRoundTrip(SeededRows(seed, GetParam(), 1 + seed * 997));
  }
}

TEST_P(PackedRowsCountTest, SplitAppendsEqualOneAppend) {
  const std::vector<Record> rows = SeededRows(42, GetParam(), 3);
  PackedRows whole;
  whole.Append(rows.data(), rows.size());
  Rng rng(43);
  PackedRows split;
  size_t at = 0;
  while (at < rows.size()) {
    // Pieces of 0 to 299 rows, some of them across a block boundary.
    const size_t n = std::min<size_t>(rows.size() - at, rng.NextBelow(300));
    split.Append(rows.data() + at, n);
    at += n;
  }
  EXPECT_EQ(split.size(), whole.size());
  EXPECT_EQ(Decode(split), Decode(whole));
}

INSTANTIATE_TEST_SUITE_P(Counts, PackedRowsCountTest,
                         ::testing::Values(0, 1, 255, 256, 257));

TEST(PackedRowsTest, ExtremeKeysGapsAndLsnsRoundTrip) {
  constexpr uint64_t kMax = UINT64_MAX;
  constexpr Lsn kLsn62 = Lsn{1} << 62;
  // A first key of 0 and a gap of 2^64 - 2.
  ExpectRoundTrip({Record{0, 0, RowDigest(0, 0, kValueSeed)},
                   Record{kMax - 1, kLsn62, 7}});
  // First keys near the top of the key space, gaps of 1.
  ExpectRoundTrip({Record{kMax - 2, kLsn62, RowDigest(kMax - 2, kLsn62,
                                                      kValueSeed)},
                   Record{kMax - 1, 1, 0},
                   Record{kMax, (Lsn{1} << 63) - 1, kMax}});
  ExpectRoundTrip({Record{kMax, 0, RowDigest(kMax, 0, kValueSeed)}});
}

TEST(PackedRowsDeathTest, RejectsKeysNotAscendingAndHugeLsns) {
  PackedRows packed;
  const Record first{5, 0, 0};
  packed.Append(&first, 1);
  const Record equal{5, 1, 0};
  const Record below{4, 1, 0};
  const Record huge_lsn{6, Lsn{1} << 63, 0};
  const Record unsorted[] = {{7, 1, 0}, {9, 1, 0}, {8, 1, 0}};
  EXPECT_DEATH(packed.Append(&equal, 1), "packed rows must ascend");
  EXPECT_DEATH(packed.Append(&below, 1), "packed rows must ascend");
  EXPECT_DEATH(packed.Append(unsorted, 3), "packed rows must ascend");
  EXPECT_DEATH(packed.Append(&huge_lsn, 1), "packed row LSN too large");
}

}  // namespace
}  // namespace slacker::storage
