#include "src/sim/binary_heap_queue.h"

#include <utility>

#include "src/common/invariant.h"

namespace slacker::sim {

BinaryHeapEventQueue::EventId BinaryHeapEventQueue::Schedule(
    SimTime when, std::function<void()> fn) {
  const EventId id = next_id_++;
  heap_.push(Event{when, id, std::move(fn)});
  pending_.insert(id);
  ++live_count_;
  return id;
}

bool BinaryHeapEventQueue::Cancel(EventId id) {
  // Only ids still pending may be cancelled; fired or unknown ids are
  // no-ops so callers can hold stale handles safely.
  auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  pending_.erase(it);
  cancelled_.insert(id);
  --live_count_;
  return true;
}

void BinaryHeapEventQueue::SkipCancelled() const {
  while (!heap_.empty()) {
    auto it = cancelled_.find(heap_.top().id);
    if (it == cancelled_.end()) return;
    cancelled_.erase(it);
    heap_.pop();
  }
}

SimTime BinaryHeapEventQueue::NextTime() const {
  SkipCancelled();
  SLACKER_DCHECK(!heap_.empty());
  return heap_.top().when;
}

SimTime BinaryHeapEventQueue::RunNext() {
  SkipCancelled();
  SLACKER_DCHECK(!heap_.empty());
  // Move the event out before running: the callback may schedule or
  // cancel other events, mutating the heap.
  Event event = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  pending_.erase(event.id);
  --live_count_;
  event.fn();
  return event.when;
}

}  // namespace slacker::sim
