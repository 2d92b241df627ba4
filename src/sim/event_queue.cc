#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/common/invariant.h"

namespace slacker::sim {

namespace {
/// Ticks are capped so the double->uint64 conversion in TickFor stays
/// in range (conversion of an out-of-range double is UB). 1e18 ms is
/// ~31 million sim-years — events beyond it still run, they just park
/// in the top wheel level and re-cascade as the cursor approaches.
constexpr double kMaxTickDouble = 1e18;
constexpr uint64_t kMaxTick = 1000000000000000000ull;
}  // namespace

EventQueue::EventQueue() {
  for (auto& head : slots_) head = kNil;
  for (auto& word : occupied_) word = 0;
}

uint64_t EventQueue::TickFor(SimTime when) {
  // Negative (and NaN) times bucket at tick 0: they are due
  // immediately, and their exact `when` still orders them in the ready
  // heap. Multiplication by a positive constant and floor are both
  // monotone, so tick order never contradicts `when` order.
  if (!(when > 0.0)) return 0;
  const double scaled = when * kTicksPerSecond;
  if (scaled >= kMaxTickDouble) return kMaxTick;
  return static_cast<uint64_t>(scaled);
}

uint32_t EventQueue::AllocNode() {
  if (free_head_ != kNil) {
    const uint32_t idx = free_head_;
    free_head_ = pool_[idx].next;
    return idx;
  }
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

void EventQueue::FreeNode(uint32_t idx) {
  Node& n = pool_[idx];
  n.fn.Reset();
  n.state = NodeState::kFree;
  // Bumping the generation invalidates every EventId handed out for
  // this slot; 0 is skipped so a live id is never zero.
  if (++n.generation == 0) n.generation = 1;
  n.next = free_head_;
  n.prev = kNil;
  free_head_ = idx;
}

EventId EventQueue::Schedule(SimTime when, Callback<void()> fn) {
  const uint32_t idx = AllocNode();
  Node& n = pool_[idx];
  n.when = when;
  n.tick = TickFor(when);
  n.seq = next_seq_++;
  n.fn = std::move(fn);
  FileNode(idx);
  ++live_count_;
  return (static_cast<uint64_t>(idx) << 32) | pool_[idx].generation;
}

void EventQueue::FileNode(uint32_t idx) {
  if (pool_[idx].tick <= current_tick_) {
    PushReady(idx);
  } else {
    InsertWheel(idx);
  }
}

void EventQueue::PushReady(uint32_t idx) {
  Node& n = pool_[idx];
  n.state = NodeState::kReady;
  ready_.push_back(ReadyEntry{n.when, n.seq, idx});
  std::push_heap(ready_.begin(), ready_.end(), ReadyLater{});
}

void EventQueue::InsertWheel(uint32_t idx) {
  Node& n = pool_[idx];
  const uint64_t tick = n.tick;
  // Smallest level whose 64-slot window, anchored at the cursor,
  // contains the tick. Invariant: every node at level l lives in an
  // absolute slot in [cursor_l, cursor_l + 64), so a slot index within
  // a level identifies a unique absolute slot — no era aliasing.
  int level = 0;
  while (level < kLevels - 1 &&
         (tick >> (kSlotBits * level)) -
                 (current_tick_ >> (kSlotBits * level)) >=
             kSlotsPerLevel) {
    ++level;
  }
  const int shift = kSlotBits * level;
  uint64_t slot_abs = tick >> shift;
  if (slot_abs - (current_tick_ >> shift) >= kSlotsPerLevel) {
    // Beyond the whole wheel's horizon: park in the farthest top-level
    // slot; the cascade re-files it as the cursor approaches.
    slot_abs = (current_tick_ >> shift) + kSlotsPerLevel - 1;
  }
  const uint16_t s = static_cast<uint16_t>(level * kSlotsPerLevel +
                                           (slot_abs & kSlotMask));
  n.state = NodeState::kWheel;
  n.slot = s;
  n.prev = kNil;
  n.next = slots_[s];
  if (slots_[s] != kNil) pool_[slots_[s]].prev = idx;
  slots_[s] = idx;
  occupied_[level] |= 1ull << (slot_abs & kSlotMask);
  ++wheel_count_;
}

void EventQueue::UnlinkWheel(uint32_t idx) {
  Node& n = pool_[idx];
  if (n.prev != kNil) {
    pool_[n.prev].next = n.next;
  } else {
    slots_[n.slot] = n.next;
  }
  if (n.next != kNil) pool_[n.next].prev = n.prev;
  if (slots_[n.slot] == kNil) {
    occupied_[n.slot >> kSlotBits] &= ~(1ull << (n.slot & kSlotMask));
  }
  --wheel_count_;
}

bool EventQueue::Cancel(EventId id) {
  const uint32_t idx = static_cast<uint32_t>(id >> 32);
  const uint32_t gen = static_cast<uint32_t>(id);
  if (idx >= pool_.size()) return false;
  Node& n = pool_[idx];
  if (n.generation != gen) return false;
  switch (n.state) {
    case NodeState::kWheel:
      UnlinkWheel(idx);
      FreeNode(idx);
      --live_count_;
      return true;
    case NodeState::kReady:
      // The node is referenced by a ready-heap entry we cannot cheaply
      // extract; drop the capture now and let the entry's pop free the
      // slot. Bounded by the current bucket, not by cancel volume.
      n.fn.Reset();
      n.state = NodeState::kCancelled;
      ++ready_dead_;
      --live_count_;
      return true;
    case NodeState::kFree:
    case NodeState::kCancelled:
      return false;
  }
  return false;
}

void EventQueue::DropCancelledReadyTop() {
  while (!ready_.empty() &&
         pool_[ready_.front().node].state == NodeState::kCancelled) {
    const uint32_t idx = ready_.front().node;
    std::pop_heap(ready_.begin(), ready_.end(), ReadyLater{});
    ready_.pop_back();
    FreeNode(idx);
    --ready_dead_;
  }
}

void EventQueue::AdvanceWheel() {
  // Pick the level whose nearest occupied slot has the smallest lower
  // bound. Rotating each level's bitmap by its cursor position turns
  // "nearest ahead of the cursor" into countr_zero.
  //
  // Ties between levels are REAL, not cosmetic: when a tick lies on a
  // level-l slot boundary (tick % 64^l == 0), a same-tick event can
  // simultaneously sit in a level-0 slot with bound == tick and in a
  // level-l slot with the same bound. Which one this function processes
  // first does not matter — correctness comes from EnsureReady flushing
  // *every* slot whose bound equals the cursor before any event runs,
  // so all same-tick events meet in the ready heap and are ordered by
  // their exact (when, seq) there.
  SLACKER_DCHECK(wheel_count_ > 0);
  int best_level = -1;
  uint64_t best_abs = 0;
  uint64_t best_bound = ~0ull;
  for (int level = 0; level < kLevels; ++level) {
    const uint64_t occ = occupied_[level];
    if (occ == 0) continue;
    const uint64_t cursor = current_tick_ >> (kSlotBits * level);
    const uint64_t rotated =
        std::rotr(occ, static_cast<int>(cursor & kSlotMask));
    const uint64_t abs =
        cursor + static_cast<uint64_t>(std::countr_zero(rotated));
    const uint64_t bound =
        std::max(abs << (kSlotBits * level), current_tick_);
    if (bound < best_bound) {
      best_bound = bound;
      best_abs = abs;
      best_level = level;
    }
  }
  SLACKER_DCHECK(best_level >= 0);

  // Detach the chosen slot's whole list.
  const uint16_t s = static_cast<uint16_t>(
      best_level * kSlotsPerLevel + (best_abs & kSlotMask));
  uint32_t head = slots_[s];
  slots_[s] = kNil;
  occupied_[best_level] &= ~(1ull << (best_abs & kSlotMask));

  // Advancing to the slot's bound skips nothing: `bound` is a lower
  // bound on every pending event's tick (it was the global minimum).
  current_tick_ = best_bound;

  if (best_level == 0) {
    // Level-0 slots are exact ticks: everything here is due.
    while (head != kNil) {
      const uint32_t idx = head;
      head = pool_[idx].next;
      --wheel_count_;
      PushReady(idx);
    }
    return;
  }
  // Cascade: re-file each node one or more levels down (or into the
  // ready heap if its tick is exactly the new cursor). Each node drops
  // at least one level per cascade, so total cascade work per event is
  // bounded by kLevels.
  while (head != kNil) {
    const uint32_t idx = head;
    head = pool_[idx].next;
    --wheel_count_;
    FileNode(idx);
  }
}

uint64_t EventQueue::MinWheelBound() const {
  uint64_t best = ~0ull;
  for (int level = 0; level < kLevels; ++level) {
    const uint64_t occ = occupied_[level];
    if (occ == 0) continue;
    const uint64_t cursor = current_tick_ >> (kSlotBits * level);
    const uint64_t rotated =
        std::rotr(occ, static_cast<int>(cursor & kSlotMask));
    const uint64_t abs =
        cursor + static_cast<uint64_t>(std::countr_zero(rotated));
    const uint64_t bound =
        std::max(abs << (kSlotBits * level), current_tick_);
    if (bound < best) best = bound;
  }
  return best;
}

void EventQueue::EnsureReady() {
  DropCancelledReadyTop();
  // Fast path: if the ready heap is already populated, every wheel
  // slot's bound exceeds the cursor — the loop below never exits
  // otherwise, and Schedule/Cancel preserve that invariant (a fresh
  // insert never lands in a slot straddling the cursor: if its tick
  // shared the cursor's slot at level l, level l-1's window would have
  // contained it).
  if (!ready_.empty() || wheel_count_ == 0) return;
  // Keep advancing until the ready heap holds something AND no wheel
  // slot's bound is <= the cursor. The second condition is the subtle
  // one: a slot whose bound equals the cursor may still hold events
  // with the *same tick* as an entry already in the ready heap (see
  // AdvanceWheel's tie comment); they must reach the heap before any
  // pop, or a larger-`when` event in the same 1 ms bucket could run
  // first. Termination: each flush either empties a level-0 slot or
  // cascades every node in a higher-level slot at least one level
  // down.
  do {
    AdvanceWheel();
    DropCancelledReadyTop();
  } while (wheel_count_ > 0 &&
           (ready_.empty() || MinWheelBound() <= current_tick_));
}

SimTime EventQueue::NextTime() {
  SLACKER_DCHECK(!empty());
  EnsureReady();
  SLACKER_DCHECK(!ready_.empty());
  return ready_.front().when;
}

SimTime EventQueue::RunNext() {
  SLACKER_DCHECK(!empty());
  EnsureReady();
  SLACKER_DCHECK(!ready_.empty());
  const ReadyEntry top = ready_.front();
  std::pop_heap(ready_.begin(), ready_.end(), ReadyLater{});
  ready_.pop_back();
  Node& n = pool_[top.node];
  // Move the callback out and recycle the node *before* running: the
  // callback may schedule new events (reusing this very slot) or grow
  // the pool.
  Callback<void()> fn = std::move(n.fn);
  FreeNode(top.node);
  --live_count_;
  fn();
  return top.when;
}

}  // namespace slacker::sim
