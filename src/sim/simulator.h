#ifndef SLACKER_SIM_SIMULATOR_H_
#define SLACKER_SIM_SIMULATOR_H_

#include <functional>
#include <limits>
#include <utility>

#include "src/sim/callback.h"
#include "src/sim/event_queue.h"

namespace slacker::sim {

/// Discrete-event simulation driver: a virtual clock plus an event
/// queue. Single-threaded by design — all model code runs inline in
/// event callbacks, so no synchronization is needed anywhere in the
/// stack and runs are bit-reproducible.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0;
  /// negative delays are clamped to 0, i.e., "run next"). `fn` is any
  /// void() callable; captures up to Callback::kInlineBytes are stored
  /// without allocating.
  EventId After(SimTime delay, Callback<void()> fn);

  /// Schedules `fn` at absolute time `when` (clamped to Now()).
  EventId At(SimTime when, Callback<void()> fn);

  /// Delivers `done(value)` as an event at Now(), off the caller's
  /// stack, so `done` may destroy the caller. No-op for an empty `done`.
  template <typename T>
  void Post(Callback<void(const T&)> done, T value) {
    if (!done) return;
    After(0.0, [done = std::move(done), value = std::move(value)] {
      done(value);
    });
  }

  bool Cancel(EventId id) { return queue_.Cancel(id); }

  /// Runs events until the queue is empty or the clock passes `until`.
  ///
  /// Boundary contract: events with time exactly `until` run in *this*
  /// call — including events scheduled at `until` by callbacks that
  /// are themselves running at `until` (the loop re-consults the queue
  /// after every callback, so a re-entrantly scheduled horizon event
  /// can neither be skipped nor deferred to the next call, and each
  /// runs exactly once). On return Now() == max(Now(), until) even if
  /// the queue drained early, so repeated calls observe monotonically
  /// increasing time. Returns the number of events executed.
  size_t RunUntil(SimTime until);

  /// Runs until the queue is empty (use only when the model is known to
  /// quiesce). Returns the number of events executed.
  size_t RunAll(size_t max_events = std::numeric_limits<size_t>::max());

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
};

/// Fires a callback every `period` seconds until stopped or the owner
/// is destroyed. The controller tick (1 s) and time-series samplers are
/// built on this.
///
/// Firing times are anchored: the n-th firing after Start() is at
/// exactly `start + n * period`, computed from the anchor each time
/// rather than by adding `period` to the previous firing. Re-arming
/// with `now + period` accumulates one rounding error per tick, which
/// desynchronizes long-horizon samplers from the controller tick by
/// whole ticks at fig14 horizons; the anchored form's error stays one
/// multiplication's rounding regardless of tick count. Stop()+Start()
/// re-anchors at the current time.
class PeriodicTimer {
 public:
  /// `fn` receives the firing time. The first firing is at
  /// start + period (not immediately), matching a sampling loop.
  PeriodicTimer(Simulator* sim, SimTime period,
                std::function<void(SimTime)> fn);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_; }

 private:
  void Arm();

  Simulator* sim_;
  SimTime period_;
  std::function<void(SimTime)> fn_;
  EventId pending_ = 0;
  bool running_ = false;
  SimTime anchor_ = 0.0;
  uint64_t ticks_ = 0;  // Firings completed since the last Start().
};

}  // namespace slacker::sim

#endif  // SLACKER_SIM_SIMULATOR_H_
