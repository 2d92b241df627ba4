#ifndef SLACKER_COMMON_RING_DEQUE_H_
#define SLACKER_COMMON_RING_DEQUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/invariant.h"

namespace slacker {

/// A deque over one contiguous power-of-two array. Drop-in for the
/// std::deque push_back/pop_front pattern the sliding-window monitors
/// use (push_front puts an element back at the head), but with flat
/// storage: std::deque allocates and frees a block
/// roughly every 512 bytes of churn, which on the controller hot path
/// (one eviction scan per completion per server) dominates the actual
/// arithmetic. Here steady-state churn touches one array with head/tail
/// masks and never allocates; capacity doubles only when size() would
/// exceed it and never shrinks, so a monitor reaches its high-water
/// mark once and is allocation-free thereafter.
///
/// Indexing is contiguous-logical: operator[](0) is the oldest element.
template <typename T>
class RingDeque {
 public:
  RingDeque() = default;
  RingDeque(const RingDeque&) = default;
  RingDeque& operator=(const RingDeque&) = default;
  /// A moved-from deque is empty and reusable (the implicit move would
  /// keep size_/head_/mask_ over an emptied buffer).
  RingDeque(RingDeque&& other) noexcept { *this = std::move(other); }
  RingDeque& operator=(RingDeque&& other) noexcept {
    if (this != &other) {
      buf_ = std::exchange(other.buf_, {});
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
      mask_ = std::exchange(other.mask_, 0);
    }
    return *this;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return buf_.size(); }

  T& front() {
    SLACKER_DCHECK(size_ > 0, "RingDeque::front on empty deque");
    return buf_[head_];
  }
  const T& front() const {
    SLACKER_DCHECK(size_ > 0, "RingDeque::front on empty deque");
    return buf_[head_];
  }
  T& back() {
    SLACKER_DCHECK(size_ > 0, "RingDeque::back on empty deque");
    return buf_[(head_ + size_ - 1) & mask_];
  }
  const T& back() const {
    SLACKER_DCHECK(size_ > 0, "RingDeque::back on empty deque");
    return buf_[(head_ + size_ - 1) & mask_];
  }

  T& operator[](size_t i) { return buf_[(head_ + i) & mask_]; }
  const T& operator[](size_t i) const { return buf_[(head_ + i) & mask_]; }

  void push_back(T value) {
    if (size_ == buf_.size()) Grow();
    buf_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  void push_front(T value) {
    if (size_ == buf_.size()) Grow();
    head_ = (head_ + mask_) & mask_;
    buf_[head_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    SLACKER_DCHECK(size_ > 0, "RingDeque::pop_front on empty deque");
    buf_[head_] = T();  // Release resources held by the slot.
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    for (size_t i = 0; i < size_; ++i) buf_[(head_ + i) & mask_] = T();
    head_ = 0;
    size_ = 0;
  }

 private:
  void Grow() {
    const size_t new_cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
    std::vector<T> grown(new_cap);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(grown);
    head_ = 0;
    mask_ = new_cap - 1;
  }

  static constexpr size_t kInitialCapacity = 16;

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace slacker

#endif  // SLACKER_COMMON_RING_DEQUE_H_
