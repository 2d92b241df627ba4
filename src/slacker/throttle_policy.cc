#include "src/slacker/throttle_policy.h"

#include <algorithm>

namespace slacker {

FixedThrottlePolicy::FixedThrottlePolicy(double rate_mbps)
    : rate_mbps_(rate_mbps) {}

double FixedThrottlePolicy::OnTick(SimTime /*now*/, SimTime /*dt*/) {
  return rate_mbps_;
}

PidThrottlePolicy::PidThrottlePolicy(const control::PidConfig& config,
                                     control::LatencyMonitor* source_monitor,
                                     control::LatencyMonitor* target_monitor)
    : pid_(config, control::PidForm::kVelocity),
      source_monitor_(source_monitor),
      target_monitor_(target_monitor) {}

double PidThrottlePolicy::InitialRateMbps() {
  // The controller ramps from the clamp floor: it will "ramp up the
  // speed of migration until transaction latency is close to the
  // setpoint" (§4.2.2) rather than start fast and disrupt the workload.
  pid_.Reset(pid_.config().output_min);
  return pid_.output();
}

double PidThrottlePolicy::OnTick(SimTime now, SimTime dt) {
  double latency = source_monitor_->WindowAverageMs(now);
  if (target_monitor_ != nullptr) {
    latency = std::max(latency, target_monitor_->WindowAverageMs(now));
  }
  last_latency_ms_ = latency;
  return pid_.Update(latency, dt);
}

ThrottlePolicy::PidTerms PidThrottlePolicy::last_terms() const {
  PidTerms terms;
  terms.valid = true;
  terms.latency_ms = last_latency_ms_;
  terms.setpoint_ms = pid_.config().setpoint;
  terms.error_ms = pid_.last_error();
  terms.p = pid_.last_p();
  terms.i = pid_.last_i();
  terms.d = pid_.last_d();
  return terms;
}

AdaptivePidThrottlePolicy::AdaptivePidThrottlePolicy(
    const control::AdaptivePidOptions& options,
    control::LatencyMonitor* source_monitor,
    control::LatencyMonitor* target_monitor)
    : pid_(options),
      source_monitor_(source_monitor),
      target_monitor_(target_monitor) {}

double AdaptivePidThrottlePolicy::InitialRateMbps() {
  // Same contract as PidThrottlePolicy: the ramp starts at the clamp
  // floor, not a hard 0.0 — with a non-zero output_min the adaptive
  // controller must never open below the configured minimum rate.
  pid_.Reset(pid_.inner().config().output_min);
  return pid_.output();
}

double AdaptivePidThrottlePolicy::OnTick(SimTime now, SimTime dt) {
  double latency = source_monitor_->WindowAverageMs(now);
  if (target_monitor_ != nullptr) {
    latency = std::max(latency, target_monitor_->WindowAverageMs(now));
  }
  last_latency_ms_ = latency;
  return pid_.Update(latency, dt);
}

ThrottlePolicy::PidTerms AdaptivePidThrottlePolicy::last_terms() const {
  const control::PidController& inner = pid_.inner();
  PidTerms terms;
  terms.valid = true;
  terms.latency_ms = last_latency_ms_;
  terms.setpoint_ms = inner.config().setpoint;
  terms.error_ms = inner.last_error();
  terms.p = inner.last_p();
  terms.i = inner.last_i();
  terms.d = inner.last_d();
  return terms;
}

std::unique_ptr<ThrottlePolicy> MakeThrottlePolicy(
    const MigrationOptions& options, control::LatencyMonitor* source_monitor,
    control::LatencyMonitor* target_monitor) {
  switch (options.throttle) {
    case ThrottleKind::kFixed:
      return std::make_unique<FixedThrottlePolicy>(options.fixed_rate_mbps);
    case ThrottleKind::kPid:
      return std::make_unique<PidThrottlePolicy>(
          options.pid, source_monitor,
          options.use_target_latency ? target_monitor : nullptr);
    case ThrottleKind::kAdaptivePid: {
      control::AdaptivePidOptions adaptive = options.adaptive;
      adaptive.base = options.pid;
      return std::make_unique<AdaptivePidThrottlePolicy>(
          adaptive, source_monitor,
          options.use_target_latency ? target_monitor : nullptr);
    }
  }
  return nullptr;
}

}  // namespace slacker
