#ifndef SLACKER_WORKLOAD_PATTERNS_H_
#define SLACKER_WORKLOAD_PATTERNS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/sim/simulator.h"
#include "src/workload/ycsb.h"

namespace slacker::workload {

/// Time-varying arrival intensity: Rate(t) returns the multiplier on
/// the workload's base arrival rate at time t. The paper motivates the
/// dynamic throttle with exactly these shapes (§4.1): "day-to-day
/// traffic patterns, e.g., diurnal periods of high activity
/// (long-term), flash crowds resulting in a rapid increase and
/// subsequent decrease (short-term)".
class ArrivalPattern {
 public:
  virtual ~ArrivalPattern() = default;
  /// Multiplier (>= 0) on the base arrival rate at time `t`.
  virtual double Rate(SimTime t) const = 0;
};

/// Per-tenant deviation from a fleet-wide diurnal base. Each fraction
/// bounds a symmetric uniform draw: a tenant's period lands in
/// base * [1 - period_fraction, 1 + period_fraction], its phase shifts
/// by up to +/- phase_fraction of the period, and its amplitude scales
/// by [1 - amplitude_fraction, 1 + amplitude_fraction]. Draws are
/// derived from (seed, tenant_id) alone, so a tenant's curve is stable
/// no matter how many tenants exist or in what order they are built.
struct DiurnalJitter {
  double period_fraction = 0.0;
  double phase_fraction = 0.0;
  double amplitude_fraction = 0.0;
};

/// Sinusoidal day/night swing: 1 + amplitude * sin(2π (t - phase) / period).
class DiurnalPattern : public ArrivalPattern {
 public:
  DiurnalPattern(SimTime period, double amplitude, SimTime phase = 0.0);
  double Rate(SimTime t) const override;

  /// A tenant's personal diurnal curve: the base (period, amplitude,
  /// phase) perturbed by deterministic, seed-derived jitter so a fleet
  /// of tenants shares one cycle without moving in lockstep.
  static DiurnalPattern ForTenant(SimTime period, double amplitude,
                                  SimTime phase, const DiurnalJitter& jitter,
                                  uint64_t seed, uint64_t tenant_id);

  SimTime period() const { return period_; }
  double amplitude() const { return amplitude_; }
  SimTime phase() const { return phase_; }

 private:
  SimTime period_;
  double amplitude_;
  SimTime phase_;
};

/// Flash crowd: ramps from 1x to `peak` over `ramp` seconds starting at
/// `start`, holds for `hold`, then decays back over `ramp`.
class FlashCrowdPattern : public ArrivalPattern {
 public:
  FlashCrowdPattern(SimTime start, SimTime ramp, SimTime hold, double peak);
  double Rate(SimTime t) const override;

 private:
  SimTime start_, ramp_, hold_;
  double peak_;
};

/// Applies a pattern to a live workload: every `update_period` seconds
/// it rescales the workload's arrival rate so that the effective rate
/// equals base_rate * pattern.Rate(now). Owns a periodic timer; stop by
/// destroying or Stop().
class PatternDriver {
 public:
  /// `workload` and `pattern` must outlive the driver. Captures the
  /// workload's current rate as the base.
  PatternDriver(sim::Simulator* sim, YcsbWorkload* workload,
                const ArrivalPattern* pattern, SimTime update_period = 5.0);

  void Start();
  void Stop();
  double current_factor() const { return current_factor_; }

 private:
  void Apply(SimTime now);

  YcsbWorkload* workload_;
  const ArrivalPattern* pattern_;
  double base_interarrival_;
  double current_factor_ = 1.0;
  sim::PeriodicTimer timer_;
};

}  // namespace slacker::workload

#endif  // SLACKER_WORKLOAD_PATTERNS_H_
