#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

namespace slacker::sim {

EventId Simulator::After(SimTime delay, Callback<void()> fn) {
  return At(now_ + std::max(delay, 0.0), std::move(fn));
}

EventId Simulator::At(SimTime when, Callback<void()> fn) {
  return queue_.Schedule(std::max(when, now_), std::move(fn));
}

size_t Simulator::RunUntil(SimTime until) {
  size_t executed = 0;
  while (!queue_.empty()) {
    const SimTime next = queue_.NextTime();
    if (next > until) break;
    now_ = next;
    queue_.RunNext();
    ++executed;
  }
  // Advance the clock to the horizon even if the queue drained early so
  // repeated RunUntil calls observe monotonically increasing time.
  now_ = std::max(now_, until);
  return executed;
}

size_t Simulator::RunAll(size_t max_events) {
  size_t executed = 0;
  while (!queue_.empty() && executed < max_events) {
    now_ = queue_.NextTime();
    queue_.RunNext();
    ++executed;
  }
  return executed;
}

PeriodicTimer::PeriodicTimer(Simulator* sim, SimTime period,
                             std::function<void(SimTime)> fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {}

PeriodicTimer::~PeriodicTimer() { Stop(); }

void PeriodicTimer::Start() {
  if (running_) return;
  running_ = true;
  anchor_ = sim_->Now();
  ticks_ = 0;
  Arm();
}

void PeriodicTimer::Stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != 0) {
    sim_->Cancel(pending_);
    pending_ = 0;
  }
}

void PeriodicTimer::Arm() {
  // Anchored re-arm: firing n is at anchor + n * period exactly (one
  // rounded multiply), never at "previous firing + period" (n rounded
  // additions, whose error grows with n).
  const SimTime next =
      anchor_ + static_cast<double>(ticks_ + 1) * period_;
  pending_ = sim_->At(next, [this] {
    pending_ = 0;
    ++ticks_;
    if (!running_) return;
    fn_(sim_->Now());
    if (running_) Arm();
  });
}

}  // namespace slacker::sim
