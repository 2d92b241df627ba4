// Event-queue determinism: the timer-wheel EventQueue must produce
// exactly the execution order of a reference queue written from the
// ordering contract alone, under randomized Schedule/Cancel
// interleavings including re-entrant scheduling from callbacks. This is
// the contract that makes the wheel a pure performance change — every
// golden figure digest depends on it.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/sim/event_queue.h"

namespace slacker::sim {
namespace {

// The oracle: events run in ascending `when`, ties in Schedule() order
// (the sequence number), and Cancel removes a pending event — returning
// false once the event has run or been cancelled.
class OracleQueue {
 public:
  uint64_t Schedule(SimTime when, std::function<void()> fn) {
    const uint64_t seq = next_seq_++;
    order_.emplace(when, seq);
    pending_.emplace(seq, Pending{when, std::move(fn)});
    return seq;
  }

  bool Cancel(uint64_t seq) {
    const auto it = pending_.find(seq);
    if (it == pending_.end()) return false;
    order_.erase({it->second.when, seq});
    pending_.erase(it);
    return true;
  }

  bool empty() const { return order_.empty(); }

  SimTime RunNext() {
    const auto [when, seq] = *order_.begin();
    order_.erase(order_.begin());
    // Detached before running: the callback may schedule more events.
    auto node = pending_.extract(seq);
    node.mapped().fn();
    return when;
  }

 private:
  struct Pending {
    SimTime when;
    std::function<void()> fn;
  };
  std::set<std::pair<SimTime, uint64_t>> order_;
  std::map<uint64_t, Pending> pending_;
  uint64_t next_seq_ = 1;
};

// A pre-generated script of operations, so both implementations see
// *identical* decisions: events are referenced by issue index, never by
// the (implementation-specific) EventId.
struct NestedSpec {
  double delta;  // Schedule at fire-time + delta from inside the callback.
  int label;
};

struct ScheduleOp {
  double delta;  // From the current virtual "now" (last executed time).
  int label;
  std::vector<NestedSpec> nested;
};

struct Op {
  enum Kind { kSchedule, kCancel, kRunSome } kind;
  ScheduleOp schedule;   // kSchedule
  size_t cancel_index;   // kCancel: index into issued top-level events.
  size_t run_count;      // kRunSome
};

struct TraceEntry {
  int label;
  double when;
  bool operator==(const TraceEntry& o) const {
    return label == o.label && when == o.when;  // Exact double compare.
  }
};

// Time deltas come from a few deliberately collision-prone regimes:
// coarse grid values that tie exactly, sub-microsecond offsets that
// land in one wheel bucket, and far-future times that exercise
// multi-level cascades.
double RandomDelta(Rng* rng) {
  switch (rng->NextBelow(4)) {
    case 0:
      return static_cast<double>(rng->NextBelow(20)) * 0.001;
    case 1:
      return static_cast<double>(rng->NextBelow(800)) * 1e-9;
    case 2:
      return static_cast<double>(rng->NextBelow(1000)) * 0.17;
    default:
      return 1000.0 + static_cast<double>(rng->NextBelow(100)) * 77.7;
  }
}

std::vector<Op> MakeScript(uint64_t seed, size_t num_ops) {
  Rng rng(seed);
  std::vector<Op> script;
  script.reserve(num_ops);
  int next_label = 0;
  size_t issued = 0;
  for (size_t i = 0; i < num_ops; ++i) {
    Op op{};
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 60 || issued == 0) {
      op.kind = Op::kSchedule;
      op.schedule.delta = RandomDelta(&rng);
      op.schedule.label = next_label++;
      // ~1 in 4 events re-entrantly schedules 1-3 more when it fires.
      if (rng.NextBelow(4) == 0) {
        const size_t n = 1 + rng.NextBelow(3);
        for (size_t k = 0; k < n; ++k) {
          op.schedule.nested.push_back({RandomDelta(&rng), next_label++});
        }
      }
      ++issued;
    } else if (roll < 80) {
      op.kind = Op::kCancel;
      // May pick an already-fired or already-cancelled event — both
      // queues must agree that it is a no-op.
      op.cancel_index = rng.NextBelow(issued);
    } else {
      op.kind = Op::kRunSome;
      op.run_count = 1 + rng.NextBelow(8);
    }
    script.push_back(std::move(op));
  }
  return script;
}

// Runs the script against a queue implementation and returns the
// execution trace plus the per-op Cancel results (which must agree
// too — a cancel that hits in one implementation but misses in the
// other would desynchronize callers).
template <typename Queue>
std::pair<std::vector<TraceEntry>, std::vector<bool>> RunScript(
    const std::vector<Op>& script) {
  Queue q;
  std::vector<TraceEntry> trace;
  std::vector<bool> cancel_results;
  std::vector<uint64_t> ids;  // Issue index -> implementation EventId.
  double now = 0.0;

  auto fire = [&](int label, double when,
                  const std::vector<NestedSpec>* nested, auto&& self) -> void {
    trace.push_back({label, when});
    if (nested != nullptr) {
      for (const NestedSpec& n : *nested) {
        q.Schedule(when + n.delta,
                   [&, label = n.label, when = when + n.delta] {
                     self(label, when, nullptr, self);
                   });
      }
    }
  };

  for (const Op& op : script) {
    switch (op.kind) {
      case Op::kSchedule: {
        const double when = now + op.schedule.delta;
        const auto* nested = &op.schedule.nested;
        const int label = op.schedule.label;
        ids.push_back(q.Schedule(
            when, [&, label, when, nested] { fire(label, when, nested, fire); }));
        break;
      }
      case Op::kCancel:
        cancel_results.push_back(q.Cancel(ids[op.cancel_index]));
        break;
      case Op::kRunSome:
        for (size_t i = 0; i < op.run_count && !q.empty(); ++i) {
          now = q.RunNext();
        }
        break;
    }
  }
  // Drain everything left so late and far-future events are compared
  // too, not just the prefix the kRunSome ops happened to reach.
  while (!q.empty()) now = q.RunNext();
  return {std::move(trace), std::move(cancel_results)};
}

void ExpectIdenticalTraces(uint64_t seed, size_t num_ops) {
  const std::vector<Op> script = MakeScript(seed, num_ops);
  auto [wheel_trace, wheel_cancels] = RunScript<EventQueue>(script);
  auto [oracle_trace, oracle_cancels] = RunScript<OracleQueue>(script);

  ASSERT_EQ(wheel_trace.size(), oracle_trace.size()) << "seed " << seed;
  for (size_t i = 0; i < wheel_trace.size(); ++i) {
    ASSERT_TRUE(wheel_trace[i] == oracle_trace[i])
        << "seed " << seed << " diverges at event " << i << ": wheel ran "
        << wheel_trace[i].label << "@" << wheel_trace[i].when
        << ", oracle ran " << oracle_trace[i].label << "@"
        << oracle_trace[i].when;
  }
  ASSERT_EQ(wheel_cancels, oracle_cancels) << "seed " << seed;
}

TEST(QueueEquivalenceTest, RandomizedInterleavingsMatchAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ExpectIdenticalTraces(seed, 2000);
  }
}

TEST(QueueEquivalenceTest, LongRunSingleSeed) {
  ExpectIdenticalTraces(424242, 20000);
}

TEST(QueueEquivalenceTest, ScheduleHeavyTieStorm) {
  // Dense exact ties: many events on the same coarse grid point, so
  // almost every comparison falls through to the FIFO tie-break.
  EventQueue wheel;
  OracleQueue oracle;
  std::vector<int> wheel_order, oracle_order;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double when = static_cast<double>(rng.NextBelow(5)) * 0.5;
    wheel.Schedule(when, [&, i] { wheel_order.push_back(i); });
    oracle.Schedule(when, [&, i] { oracle_order.push_back(i); });
  }
  while (!wheel.empty()) wheel.RunNext();
  while (!oracle.empty()) oracle.RunNext();
  ASSERT_EQ(wheel_order, oracle_order);
}

}  // namespace
}  // namespace slacker::sim
