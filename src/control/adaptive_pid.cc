#include "src/control/adaptive_pid.h"

#include <algorithm>
#include <cmath>

namespace slacker::control {

Status AdaptivePidOptions::Validate() const {
  SLACKER_RETURN_IF_ERROR(base.Validate());
  if (reference_gain <= 0) {
    return Status::InvalidArgument("reference_gain must be positive");
  }
  return Status::Ok();
}

AdaptivePidController::AdaptivePidController(const AdaptivePidOptions& options)
    : options_(options),
      pid_(options.base, PidForm::kVelocity),
      gain_estimate_(options.reference_gain) {
  Reset(options.base.output_min);
}

void AdaptivePidController::Reset(double initial_output) {
  pid_.Reset(initial_output);
  gain_estimate_ = options_.reference_gain;
  scale_ = 1.0;
  have_prev_ = false;
  samples_ = 0;
  history_len_ = 0;
  damping_ = 1.0;
  // Prior in normalized units (y/setpoint vs u/output_max): the
  // instantaneous plant the base gains assume.
  theta_[0] = 0.0;
  theta_[1] = options_.reference_gain * options_.base.output_max /
              options_.base.setpoint;
  theta_[2] = 0.0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) p_[i][j] = i == j ? 1.0 : 0.0;
  }
}

void AdaptivePidController::set_setpoint(double setpoint) {
  pid_.set_setpoint(setpoint);
}

void AdaptivePidController::Identify(double pv) {
  if (!have_prev_) return;
  // Regressors for y(t) = a*y(t-1) + b*u(t-1) + c, in normalized units
  // (y/setpoint, u/output_max) so the covariance is well conditioned.
  // Only learn when the actuator actually moved — otherwise b is
  // unidentifiable and forgetting would just inflate the covariance.
  const double du = pid_.output() - prev_output_;
  if (std::abs(du) < kMinExcitation) return;
  const double y_ref = options_.base.setpoint;
  const double u_ref = options_.base.output_max;
  const double yn = pv / y_ref;
  const double phi[3] = {prev_pv_ / y_ref, prev_output_ / u_ref, 1.0};
  const double lambda = kForgetting;

  // k = P*phi / (lambda + phi' * P * phi)
  double p_phi[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) p_phi[i] += p_[i][j] * phi[j];
  }
  double denom = lambda;
  for (int i = 0; i < 3; ++i) denom += phi[i] * p_phi[i];
  if (denom <= 0) return;
  double k[3];
  for (int i = 0; i < 3; ++i) k[i] = p_phi[i] / denom;

  double prediction = 0;
  for (int i = 0; i < 3; ++i) prediction += theta_[i] * phi[i];
  const double residual = yn - prediction;
  for (int i = 0; i < 3; ++i) theta_[i] += k[i] * residual;
  // Project onto the physically admissible region: the plant is a
  // low-pass with positive input gain. Without this, limit-cycle data
  // (which underdetermines the fit) can park b at a negative value and
  // the controller would then trust a nonsensical plant.
  theta_[0] = std::clamp(theta_[0], 0.0, 0.98);
  theta_[1] = std::max(theta_[1], 0.02);

  // P = (P - k * phi' * P) / lambda, kept symmetric and bounded.
  double new_p[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      new_p[i][j] = (p_[i][j] - k[i] * p_phi[j]) / lambda;
    }
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      p_[i][j] = std::clamp((new_p[i][j] + new_p[j][i]) / 2.0, -1e8, 1e8);
    }
  }

  ++samples_;
  // Steady-state gain g = (b / (1 - a)) * y_ref / u_ref. Plants here
  // are low-pass (a in [0, 1)); clamp before inverting.
  const double a = std::clamp(theta_[0], 0.0, 0.95);
  const double g = theta_[1] / (1.0 - a) * y_ref / u_ref;
  if (std::isfinite(g)) {
    // Plant gain is physically positive; hold a floor when noise says
    // otherwise rather than inverting the controller.
    gain_estimate_ = std::max(g, options_.reference_gain * 0.05);
  }
}

void AdaptivePidController::Rescale() {
  // Trust the base tuning until the estimator has seen enough excited
  // samples to have a meaningful fit.
  double identifier_scale = 1.0;
  if (samples_ >= kWarmupSamples) {
    identifier_scale = options_.reference_gain / gain_estimate_;
  }
  scale_ = std::clamp(identifier_scale * damping_, kMinScale, kMaxScale);
}

void AdaptivePidController::UpdateOscillationGuard(double pv) {
  pv_window_[history_len_ % kOscillationWindow] = pv;
  ++history_len_;
  if (history_len_ < kOscillationWindow) return;
  double lo = pv_window_[0], hi = pv_window_[0];
  for (int i = 1; i < kOscillationWindow; ++i) {
    lo = std::min(lo, pv_window_[i]);
    hi = std::max(hi, pv_window_[i]);
  }
  if (hi - lo > 0.5 * options_.base.setpoint) {
    // Ringing: the data feeding the identifier is a limit cycle, so do
    // not trust it — damp multiplicatively until the loop calms.
    damping_ = std::max(damping_ * 0.85, 0.002);
  } else {
    damping_ = std::min(damping_ * 1.01, 1.0);
  }
}

double AdaptivePidController::Update(double pv, double dt) {
  Identify(pv);
  UpdateOscillationGuard(pv);
  Rescale();
  const double prev_out = pid_.output();
  const double setpoint = pid_.config().setpoint;
  // The velocity form's output delta is linear in e, Δe, and Δ²e, so
  // feeding a pv whose deviation from the setpoint is scaled equals
  // scaling all three gains by scale_ (exact while scale_ is constant;
  // scale_ moves slowly relative to the tick).
  const double scaled_pv = setpoint - scale_ * (setpoint - pv);
  const double out = pid_.Update(scaled_pv, dt);
  prev_output_ = prev_out;
  prev_pv_ = pv;
  have_prev_ = true;
  return out;
}

}  // namespace slacker::control
