#ifndef SLACKER_CONTROL_ZIEGLER_NICHOLS_H_
#define SLACKER_CONTROL_ZIEGLER_NICHOLS_H_

#include <functional>

#include "src/common/status.h"
#include "src/control/pid.h"

namespace slacker::control {

/// Abstract plant for closed-loop tuning experiments: given the
/// actuator input for one timestep, returns the new process-variable
/// value. Tests use synthetic first/second-order plants; Slacker's real
/// plant is the multitenant server itself.
class Plant {
 public:
  virtual ~Plant() = default;
  virtual double Step(double input, double dt) = 0;
  virtual void Reset() = 0;
};

/// Result of the ultimate-gain search.
struct UltimateGain {
  /// Smallest proportional gain producing sustained oscillation.
  double ku = 0.0;
  /// Oscillation period at ku, in seconds.
  double tu = 0.0;
};

/// Classic Ziegler–Nichols closed-loop tuning rules [Ziegler & Nichols
/// 1942], mapping the ultimate gain/period to controller gains. The
/// paper seeds its controller with these and hand-tunes on top (§6).
PidConfig ZieglerNicholsPid(const UltimateGain& ug, double setpoint,
                            double output_min, double output_max);
PidConfig ZieglerNicholsPi(const UltimateGain& ug, double setpoint,
                           double output_min, double output_max);
PidConfig ZieglerNicholsP(const UltimateGain& ug, double setpoint,
                          double output_min, double output_max);

struct TuneOptions {
  double setpoint = 1.0;
  double dt = 1.0;
  /// Gain sweep: kp takes values 0.001 * 1.3^i for i < max_gain_steps.
  int max_gain_steps = 60;
  /// Closed-loop steps simulated per candidate gain.
  int steps_per_trial = 400;
};

/// Finds the ultimate gain by running P-only closed loops with
/// increasing Kp against `plant` until the error oscillation stops
/// decaying. Returns FailedPrecondition if no gain in the sweep
/// produces sustained oscillation (over-damped plant).
Result<UltimateGain> FindUltimateGain(Plant* plant, const TuneOptions& options);

}  // namespace slacker::control

#endif  // SLACKER_CONTROL_ZIEGLER_NICHOLS_H_
