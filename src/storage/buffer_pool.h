#ifndef SLACKER_STORAGE_BUFFER_POOL_H_
#define SLACKER_STORAGE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slacker::storage {

struct BufferPoolOptions {
  /// Number of page frames. The paper sets the InnoDB buffer to 128 MB
  /// against a 1 GB tenant precisely to force disk activity; with 16 KiB
  /// pages that is 8192 frames. Callers set it by aggregate init.
  size_t capacity_pages = 8192;  // NOLINT(slacker-unset-option)
};

/// Result of touching a page in the pool.
struct PageAccess {
  /// True if the page was already resident (no disk read needed).
  bool hit = false;
  /// True if a dirty page had to be evicted to make room; the engine
  /// issues the corresponding background write-back I/O.
  bool evicted_dirty = false;
  uint64_t evicted_page = 0;
};

/// Exact-LRU page cache bookkeeping for one tenant. Purely a state
/// machine: it decides hit/miss/eviction, while the engine charges the
/// simulated I/O. Keeping policy separate from timing lets the unit tests
/// verify LRU behaviour exactly.
///
/// Resident pages live in a flat frame array, linked into recency order
/// by 32-bit indices and found through an open-addressing page map
/// (DESIGN.md §15.5). Frames are allocated on first use, up to the
/// capacity; a full pool recycles its least recently used frame. A
/// capacity-0 pool behaves as capacity 1: it keeps the last page it
/// loaded.
class BufferPool {
 public:
  explicit BufferPool(BufferPoolOptions options);

  /// Touches `page_id`, loading it (evicting LRU if full) on a miss.
  /// `make_dirty` marks the page dirty (a row write).
  PageAccess Touch(uint64_t page_id, bool make_dirty);

  /// Whether the page is currently resident (does not affect LRU order).
  bool Contains(uint64_t page_id) const;
  bool IsDirty(uint64_t page_id) const;

  /// Drops everything (tenant deletion / post-migration teardown).
  void Clear();

  size_t resident_pages() const { return frames_.size(); }
  size_t dirty_pages() const { return dirty_count_; }
  size_t capacity() const { return options_.capacity_pages; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  double HitRate() const;
  void ResetStats();

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Frame {
    uint64_t page_id;
    uint32_t newer;  // Toward the most recently used end; kNil at it.
    uint32_t older;  // Toward the least recently used end; kNil at it.
    bool dirty;
  };
  /// Page-map slot; frame == kNil marks it empty.
  struct Slot {
    uint64_t page_id = 0;
    uint32_t frame = kNil;
  };

  size_t Home(uint64_t page_id) const;
  uint32_t Find(uint64_t page_id) const;
  void MapInsert(uint64_t page_id, uint32_t frame);
  void MapErase(uint64_t page_id);
  void GrowMap();
  void Unlink(uint32_t frame);
  void PushFront(uint32_t frame);

  BufferPoolOptions options_;
  std::vector<Frame> frames_;
  uint32_t mru_ = kNil;
  uint32_t lru_ = kNil;
  // Power-of-two size, at most half full; Home() takes the top bits of a
  // multiplicative hash, so shift_ = 64 - log2(slots_.size()).
  std::vector<Slot> slots_;
  int shift_ = 64;
  size_t dirty_count_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace slacker::storage

#endif  // SLACKER_STORAGE_BUFFER_POOL_H_
