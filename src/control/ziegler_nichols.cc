#include "src/control/ziegler_nichols.h"

#include <cmath>
#include <vector>

namespace slacker::control {
namespace {

/// Gain sweep: kp takes values kKpStart * kKpGrowth^i.
constexpr double kKpStart = 0.001;
constexpr double kKpGrowth = 1.3;
/// Oscillation is "sustained" when the later peaks retain at least this
/// fraction of the earlier peaks' amplitude.
constexpr double kSustainRatio = 0.85;

PidConfig BaseConfig(double setpoint, double output_min, double output_max) {
  PidConfig config;
  config.setpoint = setpoint;
  config.output_min = output_min;
  config.output_max = output_max;
  return config;
}

}  // namespace

PidConfig ZieglerNicholsPid(const UltimateGain& ug, double setpoint,
                            double output_min, double output_max) {
  PidConfig config = BaseConfig(setpoint, output_min, output_max);
  config.kp = 0.6 * ug.ku;
  config.ki = 2.0 * config.kp / ug.tu;
  config.kd = config.kp * ug.tu / 8.0;
  return config;
}

PidConfig ZieglerNicholsPi(const UltimateGain& ug, double setpoint,
                           double output_min, double output_max) {
  PidConfig config = BaseConfig(setpoint, output_min, output_max);
  config.kp = 0.45 * ug.ku;
  config.ki = 1.2 * config.kp / ug.tu;
  config.kd = 0.0;
  return config;
}

PidConfig ZieglerNicholsP(const UltimateGain& ug, double setpoint,
                          double output_min, double output_max) {
  PidConfig config = BaseConfig(setpoint, output_min, output_max);
  config.kp = 0.5 * ug.ku;
  config.ki = 0.0;
  config.kd = 0.0;
  return config;
}

namespace {

struct TrialOutcome {
  bool sustained = false;
  double period = 0.0;
};

/// Runs a P-only closed loop and inspects the error signal's peaks.
TrialOutcome RunTrial(Plant* plant, double kp, const TuneOptions& options) {
  plant->Reset();
  double pv = 0.0;
  std::vector<double> errors;
  errors.reserve(options.steps_per_trial);
  for (int i = 0; i < options.steps_per_trial; ++i) {
    const double error = options.setpoint - pv;
    errors.push_back(error);
    pv = plant->Step(kp * error, options.dt);
  }

  // Collect local maxima of |error| after the initial transient.
  std::vector<std::pair<int, double>> peaks;
  const int skip = options.steps_per_trial / 5;
  for (int i = skip + 1; i + 1 < static_cast<int>(errors.size()); ++i) {
    const double mag = std::abs(errors[i]);
    if (mag > std::abs(errors[i - 1]) && mag >= std::abs(errors[i + 1]) &&
        mag > 1e-9 * std::abs(options.setpoint)) {
      peaks.emplace_back(i, mag);
    }
  }
  TrialOutcome outcome;
  if (peaks.size() < 4) return outcome;

  // Sustained oscillation: the last peaks are not materially smaller
  // than the first ones.
  const double early = (peaks[0].second + peaks[1].second) / 2.0;
  const double late = (peaks[peaks.size() - 1].second +
                       peaks[peaks.size() - 2].second) / 2.0;
  if (early <= 0.0 || late / early < kSustainRatio) return outcome;

  // Period: average spacing of same-sign |error| peaks is half the
  // oscillation period (error alternates sign each half-cycle).
  double spacing_sum = 0.0;
  for (size_t i = 1; i < peaks.size(); ++i) {
    spacing_sum += static_cast<double>(peaks[i].first - peaks[i - 1].first);
  }
  const double mean_spacing =
      spacing_sum / static_cast<double>(peaks.size() - 1);
  outcome.sustained = true;
  outcome.period = 2.0 * mean_spacing * options.dt;
  return outcome;
}

}  // namespace

Result<UltimateGain> FindUltimateGain(Plant* plant,
                                      const TuneOptions& options) {
  double kp = kKpStart;
  for (int step = 0; step < options.max_gain_steps; ++step) {
    const TrialOutcome outcome = RunTrial(plant, kp, options);
    if (outcome.sustained) {
      UltimateGain ug;
      ug.ku = kp;
      ug.tu = outcome.period;
      return ug;
    }
    kp *= kKpGrowth;
  }
  return Status::FailedPrecondition(
      "no sustained oscillation found in gain sweep");
}

}  // namespace slacker::control
