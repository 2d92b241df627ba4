#include "src/control/latency_monitor.h"

#include <algorithm>
#include <utility>

namespace slacker::control {

LatencyMonitor::LatencyMonitor(SimTime window) : window_(window) {}

void LatencyMonitor::Record(SimTime now, double latency_ms) {
  window_.Add(now, latency_ms);
  ++total_recorded_;
  // Keep the "last known average" fresh even if nobody polls between
  // recordings, so a later empty-window read reports recent reality.
  last_average_ = window_.MeanAt(now);
}

void LatencyMonitor::SetOutstandingProbe(
    std::function<double(SimTime)> probe) {
  probe_ = std::move(probe);
}

double LatencyMonitor::WindowAverageMs(SimTime now) {
  if (window_.CountAt(now) > 0) {
    last_average_ = window_.MeanAt(now);
    return last_average_;
  }
  // Nothing completed recently. If transactions are stuck in flight,
  // their age is a *lower bound* on the latency they will report —
  // use it so the controller sees the overload.
  if (probe_) {
    const double pending_age = probe_(now);
    if (pending_age > 0.0) {
      return std::max(pending_age, last_average_);
    }
  }
  return last_average_;
}

bool LatencyMonitor::WithinGuardBand(SimTime now, double setpoint_ms,
                                     double band_fraction) {
  if (setpoint_ms <= 0.0) return false;
  return WindowAverageMs(now) >= setpoint_ms * (1.0 - band_fraction);
}

}  // namespace slacker::control
