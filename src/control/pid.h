#ifndef SLACKER_CONTROL_PID_H_
#define SLACKER_CONTROL_PID_H_

#include <string>

#include "src/common/status.h"

namespace slacker::control {

/// Gains and limits for a PID controller. Units in Slacker's use: the
/// process variable and setpoint are average transaction latency in
/// milliseconds; the output is a throttle rate in MB/s. The defaults
/// are the values the paper reports using (§5.3 footnote 1):
/// Kp = 0.025, Ki = 0.005, Kd = 0.015.
struct PidConfig {
  double kp = 0.025;
  double ki = 0.005;
  double kd = 0.015;
  /// Desired process-variable value (target latency, ms).
  double setpoint = 1000.0;
  /// Actuator clamp (MB/s). output_max is "the maximum possible
  /// throttling speed" the controller outputs a percentage of (§4.2.3).
  double output_min = 0.0;
  double output_max = 50.0;

  /// Validates gains/limits (non-negative gains, min < max, positive
  /// setpoint).
  Status Validate() const;
};

/// The two standard PID realizations:
///  - kPositional: u(t) = Kp e + Ki ∫e dt + Kd de/dt, with the integral
///    clamped to the output range (anti-windup by clamping).
///  - kVelocity: emits a *delta* per step and keeps no error sum —
///    Δu = Kp Δe + Ki e dt + Kd (e - 2e' + e'')/dt. This is the form
///    Slacker uses, precisely because it cannot wind up when the
///    actuator saturates (§4.2.3: a lightly loaded server keeps latency
///    far below the setpoint even at full migration speed).
enum class PidForm { kPositional, kVelocity };

/// Discrete-time PID controller.
class PidController {
 public:
  PidController(const PidConfig& config, PidForm form = PidForm::kVelocity);

  /// Advances one timestep: observes `process_variable`, returns the
  /// new clamped actuator output. `dt` is the seconds since the last
  /// update (Slacker ticks once per second).
  double Update(double process_variable, double dt);

  /// Resets history and seeds the actuator at `initial_output`.
  void Reset(double initial_output = 0.0);

  double output() const { return output_; }
  const PidConfig& config() const { return config_; }
  /// Last error observed (setpoint - pv).
  double last_error() const { return prev_error_; }
  /// Integral accumulator (positional form only).
  double integral() const { return integral_; }

  /// Per-term contributions from the most recent Update(): the term
  /// values in positional form, the per-step deltas in velocity form.
  /// For tracing controller behavior, not for control decisions.
  double last_p() const { return last_p_; }
  double last_i() const { return last_i_; }
  double last_d() const { return last_d_; }

  /// Updates the setpoint mid-flight (e.g., SLA renegotiation).
  void set_setpoint(double setpoint) { config_.setpoint = setpoint; }

 private:
  double Clamp(double v) const;

  PidConfig config_;
  PidForm form_;
  double output_ = 0.0;
  double integral_ = 0.0;
  double prev_error_ = 0.0;
  double prev_prev_error_ = 0.0;
  double last_p_ = 0.0;
  double last_i_ = 0.0;
  double last_d_ = 0.0;
  int steps_ = 0;
};

}  // namespace slacker::control

#endif  // SLACKER_CONTROL_PID_H_
