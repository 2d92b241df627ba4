// Tests for buffer pool LRU behaviour, tablespace geometry, record
// digests, and the data-directory inventory.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <string>
#include <utility>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/storage/buffer_pool.h"
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

}  // namespace
}  // namespace slacker::storage
