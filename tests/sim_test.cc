// Unit tests for the discrete-event simulator: event ordering,
// cancellation, deterministic tie-breaking, periodic timers, the
// timer-wheel internals (bucketing, cascades, cancel recycling), the
// small-buffer Callback type and the Lifetime owner guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/random.h"
#include "src/sim/callback.h"
#include "src/sim/event_queue.h"
#include "src/sim/lifetime.h"
#include "src/sim/simulator.h"

namespace slacker::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.RunNext();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.Schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceIsNoop) {
  EventQueue q;
  EventId id = q.Schedule(1.0, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelFiredEventIsNoop) {
  EventQueue q;
  EventId id = q.Schedule(1.0, [] {});
  q.RunNext();
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, CancelUnknownIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.Schedule(1.0, [] {});
  q.Schedule(2.0, [] {});
  q.Cancel(early);
  EXPECT_DOUBLE_EQ(q.NextTime(), 2.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, CallbackMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.Schedule(1.0, [&] {
    ++fired;
    q.Schedule(2.0, [&] { ++fired; });
  });
  while (!q.empty()) q.RunNext();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, SubQuantumOrderingWithinOneBucket) {
  // Events closer together than the 1 ms wheel quantum share a bucket;
  // their exact `when` doubles must still order them.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0000009, [&] { order.push_back(3); });
  q.Schedule(1.0000001, [&] { order.push_back(1); });
  q.Schedule(1.0000005, [&] { order.push_back(2); });
  while (!q.empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, LevelBoundarySameTickEventsOrderByWhen) {
  // Regression: a tick divisible by 64^l sits on a level-l slot
  // boundary, so same-tick events can simultaneously occupy a level-0
  // slot and a level-l slot with EQUAL bounds. EnsureReady must flush
  // both into the ready heap before popping anything, or the exact
  // (when, seq) tie-break is violated across the two slots.
  //
  // With a 1 ms quantum, tick 4096000 (= 64^2 * 1000) is such a
  // boundary: t = 4096.0 s. Schedule the SMALLER-when event far ahead
  // so it waits in a high wheel level, then have an event just before
  // the boundary re-entrantly schedule a larger-when sibling into the
  // same tick — that one lands in a level-0 slot whose bound equals the
  // high-level slot's. Draining level 0 first and popping immediately
  // (the old behavior) would run the larger `when` first.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(4096.0001, [&] { order.push_back(1); });  // High level.
  q.Schedule(4095.9999, [&] {
    order.push_back(0);
    q.Schedule(4096.0005, [&] { order.push_back(2); });  // Level 0.
  });
  while (!q.empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, FarFutureEventsCascadeDown) {
  // Spread across every wheel level, including a jump past the whole
  // wheel horizon (top-level parking + re-cascade path).
  EventQueue q;
  std::vector<double> times;
  const std::vector<double> whens = {1e12,   5.0,    1e-6, 3600.0,
                                     86400.0, 0.25,   7.5e5, 31.0,
                                     2048.0,  4096.5};
  for (double w : whens) {
    q.Schedule(w, [&times, w] { times.push_back(w); });
  }
  while (!q.empty()) q.RunNext();
  std::vector<double> sorted = whens;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(times, sorted);
}

TEST(EventQueueTest, RandomizedOrderMatchesSort) {
  EventQueue q;
  Rng rng(0xabcdef12);
  std::vector<double> expect;
  std::vector<double> got;
  for (int i = 0; i < 200000; ++i) {
    // Discrete grid so exact ties exercise the FIFO tie-break.
    const double when = static_cast<double>(rng.NextBelow(50000)) * 0.01;
    expect.push_back(when);
    q.Schedule(when, [&got, when] { got.push_back(when); });
  }
  std::stable_sort(expect.begin(), expect.end());
  double last = -1.0;
  while (!q.empty()) {
    const double t = q.NextTime();
    EXPECT_GE(t, last);
    last = t;
    q.RunNext();
  }
  EXPECT_EQ(got, expect);
}

TEST(EventQueueTest, CancelChurnFootprintBounded) {
  // The defect this guards: the old binary-heap queue accumulated one
  // tombstone per cancel until the entry surfaced at the heap top, so
  // cancel-heavy churn against far-future events (PeriodicTimer
  // stop/start, supervisor quench storms) grew without bound. The
  // wheel recycles the node at Cancel time: a million schedule/cancel
  // round-trips must not retain more than a handful of pool slots.
  EventQueue q;
  for (int i = 0; i < 1000000; ++i) {
    const EventId id =
        q.Schedule(1e6 + static_cast<double>(i), [] {});
    ASSERT_TRUE(q.Cancel(id));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.allocated_nodes(), 4u);
  EXPECT_EQ(q.ready_tombstones(), 0u);
}

TEST(EventQueueTest, CancelChurnAroundLiveEventsKeepsThem) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    q.Schedule(10.0 + i, [&] { ++fired; });
  }
  for (int i = 0; i < 100000; ++i) {
    q.Cancel(q.Schedule(5000.0, [] {}));
  }
  EXPECT_EQ(q.size(), 100u);
  EXPECT_LE(q.allocated_nodes(), 110u);
  while (!q.empty()) q.RunNext();
  EXPECT_EQ(fired, 100);
}

TEST(EventQueueTest, StaleIdFromRecycledSlotIsNoop) {
  // A fired event's slot is recycled for the next Schedule; the old id
  // must not cancel the new occupant (generation tags).
  EventQueue q;
  bool first = false;
  bool second = false;
  const EventId id1 = q.Schedule(1.0, [&] { first = true; });
  q.RunNext();
  const EventId id2 = q.Schedule(2.0, [&] { second = true; });
  EXPECT_FALSE(q.Cancel(id1));  // Stale: same slot, new generation.
  EXPECT_EQ(q.size(), 1u);
  q.RunNext();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  EXPECT_FALSE(q.Cancel(id2));
}

TEST(EventQueueTest, CancelDueEventBeforeRunIsHonored) {
  // Cancelling an event that is already in the due bucket (its time
  // has been reached by NextTime) must still prevent execution.
  EventQueue q;
  bool a = false;
  bool b = false;
  const EventId id = q.Schedule(1.0, [&] { a = true; });
  q.Schedule(1.0, [&] { b = true; });
  EXPECT_DOUBLE_EQ(q.NextTime(), 1.0);  // Forces the bucket ready.
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_EQ(q.size(), 1u);
  q.RunNext();
  EXPECT_FALSE(a);
  EXPECT_TRUE(b);
  EXPECT_TRUE(q.empty());
}

TEST(CallbackTest, InlineCaptureRuns) {
  int x = 0;
  Callback<void()> cb([&x] { x = 7; });
  EXPECT_TRUE(static_cast<bool>(cb));
  cb();
  EXPECT_EQ(x, 7);
}

TEST(CallbackTest, OversizedCaptureFallsBackToHeap) {
  // Larger than Callback::kInlineBytes: takes the (single) heap
  // allocation path but must behave identically.
  struct Big {
    double pad[16];
  };
  Big big{};
  big.pad[15] = 42.0;
  double seen = 0.0;
  Callback<void()> cb([big, &seen] { seen = big.pad[15]; });
  cb();
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(CallbackTest, MoveOnlyCaptureAccepted) {
  // std::function rejects move-only captures; Callback accepts them,
  // so completions can own their payloads.
  auto owned = std::make_unique<int>(5);
  int seen = 0;
  Callback<void()> cb([owned = std::move(owned), &seen] { seen = *owned; });
  cb();
  EXPECT_EQ(seen, 5);
}

TEST(CallbackTest, MoveTransfersOwnership) {
  int runs = 0;
  Callback<void()> a([&runs] { ++runs; });
  Callback<void()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EXPECT_EQ(runs, 1);
}

TEST(CallbackTest, ForwardsArgumentsOfItsSignature) {
  auto owned = std::make_unique<int>(3);
  int sum = 0;
  Callback<void(std::unique_ptr<int>, const int&)> cb(
      [&sum](std::unique_ptr<int> p, const int& x) { sum = *p + x; });
  cb(std::move(owned), 4);
  EXPECT_EQ(sum, 7);
}

TEST(CallbackTest, NullptrMakesAnEmptyCallback) {
  EXPECT_FALSE(static_cast<bool>(Callback<void()>(nullptr)));
  EXPECT_TRUE(static_cast<bool>(Callback<void()>([] {})));
}

TEST(LifetimeTest, GuardedCallbackRunsOnlyWhileOwnerLives) {
  int runs = 0;
  Callback<void()> before;
  Callback<void()> after;
  {
    Lifetime owner;
    before = owner.Guard([&runs] { ++runs; });
    after = owner.Guard([&runs] { ++runs; });
    before();
  }
  EXPECT_EQ(runs, 1);
  after();  // Owner destroyed: dropped.
  EXPECT_EQ(runs, 1);
}

TEST(LifetimeTest, GuardForwardsArgumentsAndAddsEightBytes) {
  Lifetime owner;
  int seen = 0;
  int* target = &seen;
  auto guarded = owner.Guard([target](int v) { *target = v; });
  static_assert(sizeof(guarded) == sizeof(void*) + sizeof(uint64_t));
  Callback<void(int)> cb = std::move(guarded);
  cb(9);
  EXPECT_EQ(seen, 9);
}

TEST(LifetimeTest, EmptyCallbackStaysEmptyWhenGuarded) {
  Lifetime owner;
  EXPECT_FALSE(static_cast<bool>(owner.Guard(Callback<void()>())));
  EXPECT_FALSE(static_cast<bool>(Callback<void()>(owner.Guard(nullptr))));
  int runs = 0;
  Callback<void()> guarded = owner.Guard(Callback<void()>([&runs] { ++runs; }));
  ASSERT_TRUE(static_cast<bool>(guarded));
  guarded();
  EXPECT_EQ(runs, 1);
}

TEST(LifetimeTest, SlotsAreReusedWithNewGeneration) {
  int stale_runs = 0;
  int fresh_runs = 0;
  Callback<void()> stale;
  uint64_t stale_tag = 0;
  {
    Lifetime first;
    stale_tag = first.tag();
    stale = first.Guard([&stale_runs] { ++stale_runs; });
  }
  Lifetime second;
  // The freed slot is handed out again, under a new generation.
  EXPECT_EQ(second.tag() >> 32, stale_tag >> 32);
  EXPECT_NE(second.tag(), stale_tag);
  Callback<void()> fresh = second.Guard([&fresh_runs] { ++fresh_runs; });
  stale();
  fresh();
  EXPECT_EQ(stale_runs, 0);
  EXPECT_EQ(fresh_runs, 1);
}

TEST(LifetimeTest, OwnerAndSimulatorMayDieInEitherOrder) {
  int runs = 0;
  {
    // Owner first: the pending event runs as a no-op.
    Simulator sim;
    auto owner = std::make_unique<Lifetime>();
    sim.After(1.0, owner->Guard([&runs] { ++runs; }));
    owner.reset();
    sim.RunAll();
  }
  {
    // Simulator first: the pending guarded event is destroyed unrun.
    Lifetime owner;
    auto sim = std::make_unique<Simulator>();
    sim->After(1.0, owner.Guard([&runs] { ++runs; }));
    sim.reset();
  }
  EXPECT_EQ(runs, 0);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  double seen = -1;
  sim.After(2.5, [&] { seen = sim.Now(); });
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.After(1.0, [&] { ++fired; });
  sim.After(5.0, [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(3.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.RunUntil(10.0), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventExactlyAtHorizonRuns) {
  Simulator sim;
  bool ran = false;
  sim.After(3.0, [&] { ran = true; });
  sim.RunUntil(3.0);
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.After(1.0, [] {});
  sim.RunUntil(1.0);
  bool ran = false;
  sim.After(-5.0, [&] { ran = true; });
  sim.RunUntil(1.0);
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
}

TEST(SimulatorTest, NestedSchedulingKeepsOrder) {
  Simulator sim;
  std::vector<double> times;
  sim.After(1.0, [&] {
    times.push_back(sim.Now());
    sim.After(1.0, [&] { times.push_back(sim.Now()); });
    sim.After(0.5, [&] { times.push_back(sim.Now()); });
  });
  sim.RunAll();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
  EXPECT_DOUBLE_EQ(times[2], 2.0);
}

TEST(SimulatorTest, RunAllHonorsEventCap) {
  Simulator sim;
  // Self-perpetuating event chain.
  std::function<void()> loop = [&] { sim.After(1.0, loop); };
  sim.After(1.0, loop);
  EXPECT_EQ(sim.RunAll(100), 100u);
}

TEST(PeriodicTimerTest, FiresAtPeriod) {
  Simulator sim;
  std::vector<double> fires;
  PeriodicTimer timer(&sim, 1.0, [&](SimTime t) { fires.push_back(t); });
  timer.Start();
  sim.RunUntil(5.5);
  ASSERT_EQ(fires.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(fires[i], i + 1.0);
}

TEST(PeriodicTimerTest, StopHaltsFiring) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(&sim, 1.0, [&](SimTime) { ++fires; });
  timer.Start();
  sim.RunUntil(3.5);
  timer.Stop();
  sim.RunUntil(10.0);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimerTest, StopFromCallbackIsSafe) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer* handle = nullptr;
  PeriodicTimer timer(&sim, 1.0, [&](SimTime) {
    if (++fires == 2) handle->Stop();
  });
  handle = &timer;
  timer.Start();
  sim.RunUntil(10.0);
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimerTest, RestartAfterStop) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(&sim, 1.0, [&](SimTime) { ++fires; });
  timer.Start();
  sim.RunUntil(2.5);
  timer.Stop();
  timer.Start();
  sim.RunUntil(4.0);
  EXPECT_EQ(fires, 3);  // t=1, 2, then restarted at 2.5 -> fires 3.5.
}

TEST(SimulatorTest, ReentrantScheduleAtHorizonRunsThisCall) {
  // Boundary contract: an event scheduled *by a callback running at
  // `until`* with time exactly `until` still runs in this RunUntil
  // call, exactly once.
  Simulator sim;
  int fired = 0;
  sim.After(3.0, [&] {
    ++fired;
    sim.At(3.0, [&] { ++fired; });
  });
  EXPECT_EQ(sim.RunUntil(3.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
  // Not deferred into the next call (would be a double-run if the
  // first call also ran it).
  EXPECT_EQ(sim.RunUntil(3.0), 0u);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ChainedHorizonSchedulingRunsToFixpoint) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) sim.At(2.0, chain);
  };
  sim.At(2.0, chain);
  EXPECT_EQ(sim.RunUntil(2.0), 5u);
  EXPECT_EQ(fired, 5);
}

TEST(SimulatorTest, ReentrantSchedulePastHorizonDefers) {
  Simulator sim;
  int fired = 0;
  sim.After(3.0, [&] {
    ++fired;
    sim.At(3.0 + 1e-9, [&] { ++fired; });
  });
  EXPECT_EQ(sim.RunUntil(3.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.RunUntil(4.0), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(PeriodicTimerTest, NoPhaseDriftOverTenMillionTicks) {
  // Anchored re-arm: the n-th firing is exactly anchor + n * period as
  // a double, even for a period (0.1) with no exact binary
  // representation. The old "now + period" re-arm accumulated one
  // rounding error per tick and drifted off the grid at fig14
  // horizons.
  Simulator sim;
  const double period = 0.1;
  const uint64_t kTicks = 10000000;
  uint64_t fires = 0;
  double last_fire = -1.0;
  bool on_grid = true;
  PeriodicTimer timer(&sim, period, [&](SimTime t) {
    ++fires;
    last_fire = t;
    // Exact double equality is the point of the test.
    if (t != static_cast<double>(fires) * period) on_grid = false;
  });
  timer.Start();
  sim.RunUntil(static_cast<double>(kTicks) * period);
  EXPECT_EQ(fires, kTicks);
  EXPECT_TRUE(on_grid);
  EXPECT_EQ(last_fire, static_cast<double>(kTicks) * period);
}

TEST(PeriodicTimerTest, RestartReanchorsAtCurrentTime) {
  Simulator sim;
  std::vector<double> fires;
  PeriodicTimer timer(&sim, 0.1, [&](SimTime t) { fires.push_back(t); });
  timer.Start();
  sim.RunUntil(0.25);
  timer.Stop();
  timer.Start();  // Anchor moves to 0.25.
  sim.RunUntil(0.6);
  ASSERT_EQ(fires.size(), 5u);
  EXPECT_EQ(fires[2], 0.25 + 1 * 0.1);
  EXPECT_EQ(fires[3], 0.25 + 2 * 0.1);
  EXPECT_EQ(fires[4], 0.25 + 3 * 0.1);
}

TEST(PeriodicTimerTest, DestructionCancelsPending) {
  Simulator sim;
  int fires = 0;
  {
    PeriodicTimer timer(&sim, 1.0, [&](SimTime) { ++fires; });
    timer.Start();
    sim.RunUntil(1.5);
  }
  sim.RunUntil(10.0);
  EXPECT_EQ(fires, 1);
}

}  // namespace
}  // namespace slacker::sim
