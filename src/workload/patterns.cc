#include "src/workload/patterns.h"

#include <algorithm>
#include <cmath>

#include "src/common/random.h"

namespace slacker::workload {

DiurnalPattern::DiurnalPattern(SimTime period, double amplitude,
                               SimTime phase)
    : period_(period), amplitude_(amplitude), phase_(phase) {}

double DiurnalPattern::Rate(SimTime t) const {
  const double factor =
      1.0 + amplitude_ * std::sin(2.0 * M_PI * (t - phase_) / period_);
  return std::max(factor, 0.0);
}

DiurnalPattern DiurnalPattern::ForTenant(SimTime period, double amplitude,
                                         SimTime phase,
                                         const DiurnalJitter& jitter,
                                         uint64_t seed, uint64_t tenant_id) {
  // Mix the tenant id into the seed so each tenant owns an independent
  // stream that does not depend on construction order.
  Rng rng(seed ^ (tenant_id * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL));
  const double period_scale =
      1.0 + jitter.period_fraction * (2.0 * rng.NextDouble() - 1.0);
  const double phase_shift =
      jitter.phase_fraction * period * (2.0 * rng.NextDouble() - 1.0);
  const double amplitude_scale =
      1.0 + jitter.amplitude_fraction * (2.0 * rng.NextDouble() - 1.0);
  const SimTime jittered_period = std::max(period * period_scale, 1.0);
  double jittered_amplitude = amplitude * amplitude_scale;
  if (jittered_amplitude < 0.0) jittered_amplitude = 0.0;
  return DiurnalPattern(jittered_period, jittered_amplitude,
                        phase + phase_shift);
}

FlashCrowdPattern::FlashCrowdPattern(SimTime start, SimTime ramp,
                                     SimTime hold, double peak)
    : start_(start), ramp_(ramp), hold_(hold), peak_(peak) {}

double FlashCrowdPattern::Rate(SimTime t) const {
  if (t < start_) return 1.0;
  const SimTime into = t - start_;
  if (into < ramp_) {
    return 1.0 + (peak_ - 1.0) * (into / ramp_);
  }
  if (into < ramp_ + hold_) return peak_;
  if (into < ramp_ + hold_ + ramp_) {
    const SimTime decay = into - ramp_ - hold_;
    return peak_ - (peak_ - 1.0) * (decay / ramp_);
  }
  return 1.0;
}

PatternDriver::PatternDriver(sim::Simulator* sim, YcsbWorkload* workload,
                             const ArrivalPattern* pattern,
                             SimTime update_period)
    : workload_(workload),
      pattern_(pattern),
      base_interarrival_(workload->mean_interarrival()),
      timer_(sim, update_period, [this](SimTime now) { Apply(now); }) {}

void PatternDriver::Start() { timer_.Start(); }
void PatternDriver::Stop() { timer_.Stop(); }

void PatternDriver::Apply(SimTime now) {
  const double factor = std::max(pattern_->Rate(now), 1e-3);
  // ScaleArrivalRate is multiplicative on the current rate; compose the
  // correction that moves us from the current factor to the new one.
  workload_->ScaleArrivalRate(factor / current_factor_);
  current_factor_ = factor;
  (void)base_interarrival_;
}

}  // namespace slacker::workload
