#ifndef SLACKER_SIM_EVENT_QUEUE_H_
#define SLACKER_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/sim/callback.h"

namespace slacker::sim {

/// Identifies a scheduled event so it can be cancelled. Encodes a pool
/// slot plus a generation tag; ids from fired or cancelled events go
/// stale immediately, so holding one is always safe. Never zero.
using EventId = uint64_t;

/// Time-ordered queue of callbacks — the simulator's hot path.
///
/// Internally a hierarchical timer wheel (kLevels levels of 64 slots,
/// 1 ms quantum) over a slab pool of intrusively linked event nodes:
///
///  - Schedule is O(1): one pool slot reuse (no allocation once the
///    pool is warm; the callback's capture lives inline in the node,
///    see sim::Callback) and one doubly-linked list push.
///  - Cancel is O(1): the id's generation tag is checked against the
///    node and the node is unlinked and recycled on the spot — no
///    tombstone sets that grow with cancel churn.
///  - Pop amortizes O(1): the wheel cursor jumps between occupied
///    slots via per-level bitmaps; far-future events cascade down at
///    most kLevels times.
///
/// Ordering contract (identical to the binary-heap queue this
/// replaced; tests/sim_queue_property_test.cc checks it against an
/// ordered-set oracle): events run in ascending exact `when` (the full double, not the quantized tick), ties broken
/// by Schedule() order, so runs are bit-deterministic regardless of
/// wheel internals. Quantization only affects *bucketing*; events that
/// land in the same 1 ms bucket are ordered by their exact (when, seq)
/// inside the bucket's ready heap before running.
class EventQueue {
 public:
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `when`. Returns an id usable with
  /// Cancel().
  EventId Schedule(SimTime when, Callback<void()> fn);

  /// Cancels a pending event in O(1). Cancelling an already-fired,
  /// already-cancelled, or unknown id is a no-op and returns false.
  /// The event's node (and its callback capture) is released
  /// immediately — a cancel-heavy workload holds no tombstones for
  /// far-future events.
  bool Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  /// Time of the earliest pending event. Requires !empty().
  SimTime NextTime();

  /// Pops and runs the earliest pending event; returns its time.
  /// Requires !empty().
  SimTime RunNext();

  // ---- Introspection (tests and perf benches) ----

  /// Total pool slots ever allocated. Bounded by the peak number of
  /// *concurrently pending* events, not by cumulative schedule/cancel
  /// traffic — the regression guard for Cancel's memory behavior.
  size_t allocated_nodes() const { return pool_.size(); }

  /// Cancelled events whose node is still parked in the due-bucket
  /// heap (freed when popped). Bounded by the size of the current
  /// 1 ms bucket, not by total cancels.
  size_t ready_tombstones() const { return ready_dead_; }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr uint64_t kSlotsPerLevel = 1ull << kSlotBits;  // 64
  static constexpr uint64_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr int kLevels = 8;  // 64^8 ticks ≈ 8900 sim-years @1ms.
  static constexpr uint32_t kNil = 0xffffffffu;
  /// Wheel quantum: 1 ms of simulated time per tick. Coarse enough
  /// that steady-state events (sub-second interarrivals) insert at the
  /// lowest wheel levels with few cascades; ordering is unaffected
  /// because ties within a bucket resolve on the exact (when, seq).
  static constexpr double kTicksPerSecond = 1e3;

  enum class NodeState : uint8_t {
    kFree,       // On the free list.
    kWheel,      // Linked into a wheel slot.
    kReady,      // Referenced by an entry in the ready heap.
    kCancelled,  // Cancelled while ready; freed when its entry pops.
  };

  struct Node {
    SimTime when = 0.0;
    uint64_t tick = 0;
    uint64_t seq = 0;
    uint32_t prev = kNil;  // Doubly linked within a wheel slot; `next`
    uint32_t next = kNil;  // doubles as the free-list link.
    uint32_t generation = 1;
    uint16_t slot = 0;  // Global slot index (level * 64 + slot-in-level).
    NodeState state = NodeState::kFree;
    Callback<void()> fn;
  };

  /// Heap entry for events due at or before the wheel cursor. Carries
  /// (when, seq) by value so ordering never touches the pool.
  struct ReadyEntry {
    SimTime when;
    uint64_t seq;
    uint32_t node;
  };
  struct ReadyLater {
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;  // FIFO among simultaneous events.
    }
  };

  static uint64_t TickFor(SimTime when);

  uint32_t AllocNode();
  void FreeNode(uint32_t idx);

  /// Routes a node to the ready heap (tick <= cursor) or a wheel slot.
  void FileNode(uint32_t idx);
  void InsertWheel(uint32_t idx);
  void UnlinkWheel(uint32_t idx);
  void PushReady(uint32_t idx);

  /// Pops cancelled entries off the ready heap, freeing their nodes.
  void DropCancelledReadyTop();
  /// Ensures the ready heap's top is the earliest live event, advancing
  /// the wheel cursor (draining/cascading slots) as needed. Requires
  /// !empty().
  void EnsureReady();
  /// Advances the cursor to the next occupied slot: drains a level-0
  /// slot into the ready heap, or cascades one higher-level slot down.
  void AdvanceWheel();
  /// Smallest lower bound over every level's nearest occupied slot
  /// (~0ull when the wheel is empty). EnsureReady uses it to detect
  /// slots that may still hold events sharing the ready top's tick.
  uint64_t MinWheelBound() const;

  std::vector<Node> pool_;
  uint32_t free_head_ = kNil;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  size_t wheel_count_ = 0;  // Live nodes currently in wheel slots.
  uint64_t current_tick_ = 0;
  uint32_t slots_[kLevels * kSlotsPerLevel];
  uint64_t occupied_[kLevels];  // Bit s of level l: slot l*64+s nonempty.
  std::vector<ReadyEntry> ready_;  // Binary min-heap by (when, seq).
  size_t ready_dead_ = 0;
};

}  // namespace slacker::sim

#endif  // SLACKER_SIM_EVENT_QUEUE_H_
