#include "src/storage/buffer_pool.h"

#include <algorithm>
#include <bit>

#include "src/common/invariant.h"

namespace slacker::storage {

BufferPool::BufferPool(BufferPoolOptions options) : options_(options) {
  SLACKER_CHECK(options_.capacity_pages < kNil,
                "frame indices are 32-bit");
}

size_t BufferPool::Home(uint64_t page_id) const {
  // Fibonacci hashing: page ids are (tenant << 40) | page, so the low
  // bits alone would cluster.
  return static_cast<size_t>((page_id * 0x9E3779B97F4A7C15ull) >> shift_);
}

uint32_t BufferPool::Find(uint64_t page_id) const {
  if (slots_.empty()) return kNil;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(page_id); slots_[i].frame != kNil; i = (i + 1) & mask) {
    if (slots_[i].page_id == page_id) return slots_[i].frame;
  }
  return kNil;
}

void BufferPool::MapInsert(uint64_t page_id, uint32_t frame) {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(page_id);
  while (slots_[i].frame != kNil) i = (i + 1) & mask;
  slots_[i] = Slot{page_id, frame};
}

void BufferPool::MapErase(uint64_t page_id) {
  const size_t mask = slots_.size() - 1;
  size_t hole = Home(page_id);
  while (slots_[hole].page_id != page_id || slots_[hole].frame == kNil) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull later entries of the probe run into
  // the hole unless that would move one before its home slot, so every
  // lookup still finds its key before the first empty slot.
  for (size_t i = (hole + 1) & mask; slots_[i].frame != kNil;
       i = (i + 1) & mask) {
    const size_t home = Home(slots_[i].page_id);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole].frame = kNil;
}

void BufferPool::GrowMap() {
  const size_t size = std::max<size_t>(16, 2 * slots_.size());
  slots_.assign(size, Slot{});
  shift_ = 64 - std::countr_zero(size);
  for (uint32_t f = 0; f < frames_.size(); ++f) {
    MapInsert(frames_[f].page_id, f);
  }
}

void BufferPool::Unlink(uint32_t frame) {
  const Frame& f = frames_[frame];
  if (f.newer != kNil) {
    frames_[f.newer].older = f.older;
  } else {
    mru_ = f.older;
  }
  if (f.older != kNil) {
    frames_[f.older].newer = f.newer;
  } else {
    lru_ = f.newer;
  }
}

void BufferPool::PushFront(uint32_t frame) {
  Frame& f = frames_[frame];
  f.newer = kNil;
  f.older = mru_;
  if (mru_ != kNil) {
    frames_[mru_].newer = frame;
  } else {
    lru_ = frame;
  }
  mru_ = frame;
}

PageAccess BufferPool::Touch(uint64_t page_id, bool make_dirty) {
  PageAccess result;
  const uint32_t resident = Find(page_id);
  if (resident != kNil) {
    result.hit = true;
    ++hits_;
    if (resident != mru_) {
      Unlink(resident);
      PushFront(resident);
    }
    Frame& f = frames_[resident];
    if (make_dirty && !f.dirty) {
      f.dirty = true;
      ++dirty_count_;
    }
    return result;
  }

  ++misses_;
  uint32_t frame;
  if (frames_.size() >= options_.capacity_pages && !frames_.empty()) {
    frame = lru_;
    const Frame& victim = frames_[frame];
    if (victim.dirty) {
      result.evicted_dirty = true;
      result.evicted_page = victim.page_id;
      --dirty_count_;
    }
    MapErase(victim.page_id);
    Unlink(frame);
  } else {
    if (2 * (frames_.size() + 1) > slots_.size()) GrowMap();
    frame = static_cast<uint32_t>(frames_.size());
    frames_.push_back(Frame{});
  }
  frames_[frame].page_id = page_id;
  frames_[frame].dirty = make_dirty;
  PushFront(frame);
  MapInsert(page_id, frame);
  if (make_dirty) ++dirty_count_;
  return result;
}

bool BufferPool::Contains(uint64_t page_id) const {
  return Find(page_id) != kNil;
}

bool BufferPool::IsDirty(uint64_t page_id) const {
  const uint32_t frame = Find(page_id);
  return frame != kNil && frames_[frame].dirty;
}

void BufferPool::Clear() {
  frames_.clear();
  slots_.clear();
  shift_ = 64;
  mru_ = kNil;
  lru_ = kNil;
  dirty_count_ = 0;
}

double BufferPool::HitRate() const {
  const uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

void BufferPool::ResetStats() {
  hits_ = 0;
  misses_ = 0;
}

}  // namespace slacker::storage
