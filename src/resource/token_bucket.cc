#include "src/resource/token_bucket.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/invariant.h"

namespace slacker::resource {

TokenBucket::TokenBucket(sim::Simulator* sim, TokenBucketOptions options)
    : sim_(sim),
      options_(options),
      rate_(options.rate_bytes_per_sec),
      tokens_(0.0),
      last_refill_(sim->Now()) {}

TokenBucket::~TokenBucket() {
  if (wakeup_ != 0) sim_->Cancel(wakeup_);
}

void TokenBucket::Refill() {
  const SimTime now = sim_->Now();
  const SimTime elapsed = now - last_refill_;
  last_refill_ = now;
  if (elapsed <= 0.0 || rate_ <= 0.0) return;
  tokens_ = std::min(tokens_ + rate_ * elapsed,
                     static_cast<double>(options_.burst_bytes));
}

void TokenBucket::Acquire(uint64_t bytes, sim::Callback<void()> granted) {
  waiters_.push_back(Waiter{static_cast<double>(bytes), std::move(granted)});
  PumpWaiters();
}

void TokenBucket::SetRate(double bytes_per_sec) {
  // A NaN/inf or negative rate is a controller bug upstream (a PID that
  // escaped its clamp); letting it in would stall or runaway the pipe
  // in a way that only surfaces minutes later in a throttle series.
  SLACKER_CHECK(std::isfinite(bytes_per_sec),
                "token bucket rate is not finite");
  SLACKER_CHECK(bytes_per_sec >= 0.0, "token bucket rate is negative");
  Refill();  // Bank tokens accrued at the old rate first.
  rate_ = std::max(bytes_per_sec, 0.0);
  if (wakeup_ != 0) {
    sim_->Cancel(wakeup_);
    wakeup_ = 0;
  }
  PumpWaiters();
}

void TokenBucket::PumpWaiters() {
  Refill();
  // Refill clamps at the burst and every grant subtracts what it takes:
  // the token count must stay within [0, burst].
  SLACKER_DCHECK(tokens_ >= 0.0 &&
                 tokens_ <= static_cast<double>(options_.burst_bytes));
  // Residues below a milli-byte are float noise, not real debt: treat
  // them as satisfied so the wakeup chain cannot degenerate into
  // ever-smaller (eventually sub-ulp, i.e., zero-time) sleeps.
  constexpr double kEpsilonBytes = 1e-3;
  while (!waiters_.empty()) {
    Waiter& front = waiters_.front();
    const double take = std::min(front.remaining, tokens_);
    tokens_ -= take;
    front.remaining -= take;
    if (front.remaining > kEpsilonBytes) break;
    auto granted = std::move(front.granted);
    waiters_.pop_front();
    // Defer the callback through the simulator so a grantee that
    // immediately re-acquires does not recurse into this loop.
    sim_->After(0.0, std::move(granted));
  }
  ScheduleWakeup();
}

void TokenBucket::ScheduleWakeup() {
  if (wakeup_ != 0 || waiters_.empty() || rate_ <= 0.0) return;
  const double deficit = waiters_.front().remaining - tokens_;
  // Cap the accrual horizon at the burst so the wakeup never waits for
  // tokens the bucket cannot hold; oversize requests drain in rounds.
  const double accruable =
      std::min(deficit, static_cast<double>(options_.burst_bytes));
  // Floor the sleep at 1 µs: a shorter delay can round to *no* clock
  // advance in double precision, which would re-run this wakeup at the
  // same instant forever.
  const SimTime delay = std::max(accruable / rate_, 1e-6);
  wakeup_ = sim_->After(delay, [this] {
    wakeup_ = 0;
    PumpWaiters();
  });
}

}  // namespace slacker::resource
