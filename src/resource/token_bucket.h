#ifndef SLACKER_RESOURCE_TOKEN_BUCKET_H_
#define SLACKER_RESOURCE_TOKEN_BUCKET_H_

#include <cstdint>

#include "src/common/ring_deque.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace slacker::resource {

struct TokenBucketOptions {
  /// Initial fill rate, bytes/sec. 0 means paused.
  double rate_bytes_per_sec = 0.0;
  /// Maximum accumulated tokens (burst), bytes. Small relative to the
  /// chunk size so an idle pipe cannot dump a large burst on the disk
  /// the instant it resumes — `pv` behaves the same way.
  uint64_t burst_bytes = 2 * kMiB;
};

/// The `pv` equivalent: an adjustable-rate token bucket gating the
/// migration pipe. Acquire(bytes) completes when the bucket has drained
/// enough tokens; callers (the snapshot streamer) therefore experience
/// back-pressure, which is what throttles the source disk reads.
///
/// SetRate() may be called at any time — including while acquirers wait
/// — and takes effect immediately, mirroring `pv -L` runtime rate
/// changes that Slacker's PID controller issues every second.
class TokenBucket {
 public:
  TokenBucket(sim::Simulator* sim, TokenBucketOptions options);
  /// Cancels the pending refill wakeup: a bucket may die mid-stream
  /// (its owning migration job crashes with the server).
  ~TokenBucket();

  TokenBucket(const TokenBucket&) = delete;
  TokenBucket& operator=(const TokenBucket&) = delete;

  /// Requests `bytes` of budget; `granted` fires once the bucket can
  /// cover them. Requests are served FIFO. `bytes` may exceed
  /// burst_bytes; such a request drains the bucket across multiple
  /// refill periods.
  void Acquire(uint64_t bytes, sim::Callback<void()> granted);

  /// Changes the fill rate. Rate 0 pauses the pipe (waiters stall until
  /// the rate becomes positive again).
  void SetRate(double bytes_per_sec);
  double rate() const { return rate_; }

 private:
  void Refill();
  void PumpWaiters();
  void ScheduleWakeup();

  sim::Simulator* sim_;
  TokenBucketOptions options_;
  double rate_;
  double tokens_;
  SimTime last_refill_ = 0.0;

  struct Waiter {
    // Remaining bytes still to cover for this request.
    double remaining = 0.0;
    sim::Callback<void()> granted;
  };
  RingDeque<Waiter> waiters_;
  sim::EventId wakeup_ = 0;
};

}  // namespace slacker::resource

#endif  // SLACKER_RESOURCE_TOKEN_BUCKET_H_
