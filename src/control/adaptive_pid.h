#ifndef SLACKER_CONTROL_ADAPTIVE_PID_H_
#define SLACKER_CONTROL_ADAPTIVE_PID_H_

#include "src/common/status.h"
#include "src/control/pid.h"

namespace slacker::control {

/// Options for the self-tuning controller.
struct AdaptivePidOptions {
  /// Base gains/limits; the paper's hand-tuned values are the anchor.
  PidConfig base;
  /// Steady-state plant gain (ms of latency per MB/s of migration rate)
  /// the base gains were tuned for. The adaptive layer rescales the
  /// gains by reference_gain / estimated_gain, so a twice-as-sensitive
  /// server gets half the controller gain.
  double reference_gain = 40.0;

  Status Validate() const;
};

/// Self-tuning wrapper over the velocity PID (§6 "Choosing the PID
/// Parameters": "One model is adaptive control ... PID parameters to be
/// learned online and adapted to the situation in real time").
///
/// Identification: the plant near its operating point is modelled as a
/// first-order ARX process,
///     y(t) = a·y(t-1) + b·u(t-1) + c,
/// whose parameters are tracked by exponentially weighted recursive
/// least squares; the steady-state gain is ĝ = b / (1 - a). The
/// effective loop gain is kept constant by scaling all three PID gains
/// by reference_gain / ĝ — servers whose latency reacts strongly to
/// migration speed get a gentler controller, insensitive servers a more
/// aggressive one, with no per-deployment hand-tuning.
class AdaptivePidController {
 public:
  explicit AdaptivePidController(const AdaptivePidOptions& options);

  /// One controller tick; returns the new actuator output (MB/s).
  double Update(double process_variable, double dt);

  void Reset(double initial_output = 0.0);

  double output() const { return pid_.output(); }
  /// Current steady-state plant-gain estimate ĝ (ms per MB/s).
  double estimated_gain() const { return gain_estimate_; }
  /// Current gain rescale factor applied to the base PID gains
  /// (identifier rescale x oscillation damping).
  double gain_scale() const { return scale_; }
  const PidController& inner() const { return pid_; }
  void set_setpoint(double setpoint);

 private:
  void Identify(double pv);
  void UpdateOscillationGuard(double pv);
  void Rescale();

  static constexpr int kWarmupSamples = 10;
  static constexpr int kOscillationWindow = 8;
  /// Exponential forgetting factor of the recursive estimator (closer
  /// to 1 = slower adaptation, more smoothing).
  static constexpr double kForgetting = 0.98;
  /// Clamp on the gain rescale factor.
  static constexpr double kMinScale = 0.2;
  static constexpr double kMaxScale = 5.0;
  /// Ignore ticks whose rate change is below this (MB/s) — too little
  /// excitation to identify the plant.
  static constexpr double kMinExcitation = 0.5;

  AdaptivePidOptions options_;
  PidController pid_;
  double gain_estimate_;
  double scale_ = 1.0;
  int samples_ = 0;
  // Oscillation guard: when the process variable swings by more than
  // half the setpoint within a short window, the loop gain is too high
  // regardless of what the identifier believes (its data is then a
  // limit cycle and uninformative); a multiplicative damping factor
  // backs the gains off until calm.
  double pv_window_[kOscillationWindow] = {};
  int history_len_ = 0;
  double damping_ = 1.0;

  // ARX parameter vector theta = [a, b, c] and 3x3 covariance P.
  double theta_[3];
  double p_[3][3];
  double prev_pv_ = 0.0;
  double prev_output_ = 0.0;
  bool have_prev_ = false;
};

}  // namespace slacker::control

#endif  // SLACKER_CONTROL_ADAPTIVE_PID_H_
