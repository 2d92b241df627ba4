#ifndef SLACKER_CONTROL_LATENCY_MONITOR_H_
#define SLACKER_CONTROL_LATENCY_MONITOR_H_

#include <functional>

#include "src/common/stats.h"
#include "src/common/units.h"

namespace slacker::control {

/// The controller's sensor: average transaction latency over a small
/// sliding window (the paper found 3 s with a 1 s tick reasonable,
/// §4.2.3). Aggregates completions from *all* tenants on a server —
/// the multitenant policy of §5.6.
class LatencyMonitor {
 public:
  explicit LatencyMonitor(SimTime window = 3.0);

  /// Records a completed transaction's latency (ms) at time `now`.
  void Record(SimTime now, double latency_ms);

  /// Optional probe returning the age (ms) of the oldest transaction
  /// still outstanding. When the window is empty because the server is
  /// too backed up to complete anything, the monitor reports this
  /// instead of a stale/zero value — otherwise an overloaded server
  /// would look idle to the controller.
  void SetOutstandingProbe(std::function<double(SimTime)> probe);

  /// Smoothed latency signal at time `now` (ms).
  double WindowAverageMs(SimTime now);

  /// True when the smoothed latency signal at `now` has climbed to
  /// within `band_fraction` of `setpoint_ms` (or past it):
  ///   WindowAverageMs(now) >= setpoint_ms * (1 - band_fraction).
  /// The rebalancer's admission controller uses this to defer
  /// migrations involving a server whose latency has no slack left —
  /// migration I/O would push it straight through the PID setpoint.
  bool WithinGuardBand(SimTime now, double setpoint_ms, double band_fraction);

  uint64_t total_recorded() const { return total_recorded_; }

 private:
  SlidingWindowMean window_;
  std::function<double(SimTime)> probe_;
  double last_average_ = 0.0;
  uint64_t total_recorded_ = 0;
};

}  // namespace slacker::control

#endif  // SLACKER_CONTROL_LATENCY_MONITOR_H_
