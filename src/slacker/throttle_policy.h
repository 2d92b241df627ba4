#ifndef SLACKER_SLACKER_THROTTLE_POLICY_H_
#define SLACKER_SLACKER_THROTTLE_POLICY_H_

#include <memory>
#include <string>

#include "src/common/units.h"
#include "src/control/latency_monitor.h"
#include "src/control/pid.h"
#include "src/resource/token_bucket.h"
#include "src/slacker/options.h"

namespace slacker {

/// Decides the migration transfer rate each controller tick and drives
/// the pv-style token bucket.
class ThrottlePolicy {
 public:
  virtual ~ThrottlePolicy() = default;

  /// Rate at migration start (MB/s).
  virtual double InitialRateMbps() = 0;
  /// Called once per controller tick; returns the rate (MB/s) the
  /// policy chose for the next interval.
  virtual double OnTick(SimTime now, SimTime dt) = 0;
  virtual std::string name() const = 0;

  /// Controller internals from the most recent OnTick, for tracing.
  /// `valid` is false for policies without a PID core (fixed throttle).
  struct PidTerms {
    bool valid = false;
    /// The process variable fed to the controller: the sliding-window
    /// latency (ms).
    double latency_ms = 0.0;
    double setpoint_ms = 0.0;
    double error_ms = 0.0;
    double p = 0.0;
    double i = 0.0;
    double d = 0.0;
  };
  virtual PidTerms last_terms() const { return {}; }
};

/// Baseline: "we manually set the throttle at the start of migration
/// and do not adjust it for the duration" (§5).
class FixedThrottlePolicy : public ThrottlePolicy {
 public:
  explicit FixedThrottlePolicy(double rate_mbps);

  double InitialRateMbps() override { return rate_mbps_; }
  double OnTick(SimTime now, SimTime dt) override;
  std::string name() const override { return "fixed"; }

 private:
  double rate_mbps_;
};

/// Slacker's dynamic throttle: a velocity-form PID controller targeting
/// a transaction-latency setpoint (§4.2.2). The process variable is the
/// source server's sliding-window average latency; with
/// `target_monitor` set, it is max(source, target) — the §6 variant
/// where whichever server has least slack governs the rate.
class PidThrottlePolicy : public ThrottlePolicy {
 public:
  PidThrottlePolicy(const control::PidConfig& config,
                    control::LatencyMonitor* source_monitor,
                    control::LatencyMonitor* target_monitor = nullptr);

  double InitialRateMbps() override;
  double OnTick(SimTime now, SimTime dt) override;
  std::string name() const override { return "slacker-pid"; }

  const control::PidController& controller() const { return pid_; }
  PidTerms last_terms() const override;

 private:
  control::PidController pid_;
  control::LatencyMonitor* source_monitor_;
  control::LatencyMonitor* target_monitor_;
  double last_latency_ms_ = 0.0;
};

/// §6 adaptive-control variant: same feedback wiring as
/// PidThrottlePolicy, but the controller gains are rescaled online from
/// a recursive estimate of how strongly latency reacts to the
/// migration rate — no per-deployment hand-tuning.
class AdaptivePidThrottlePolicy : public ThrottlePolicy {
 public:
  AdaptivePidThrottlePolicy(const control::AdaptivePidOptions& options,
                            control::LatencyMonitor* source_monitor,
                            control::LatencyMonitor* target_monitor = nullptr);

  double InitialRateMbps() override;
  double OnTick(SimTime now, SimTime dt) override;
  std::string name() const override { return "slacker-adaptive-pid"; }

  const control::AdaptivePidController& controller() const { return pid_; }
  PidTerms last_terms() const override;

 private:
  control::AdaptivePidController pid_;
  control::LatencyMonitor* source_monitor_;
  control::LatencyMonitor* target_monitor_;
  double last_latency_ms_ = 0.0;
};

/// Builds the policy described by `options`, wiring monitors as needed.
std::unique_ptr<ThrottlePolicy> MakeThrottlePolicy(
    const MigrationOptions& options, control::LatencyMonitor* source_monitor,
    control::LatencyMonitor* target_monitor);

}  // namespace slacker

#endif  // SLACKER_SLACKER_THROTTLE_POLICY_H_
