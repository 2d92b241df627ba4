#ifndef SLACKER_RESOURCE_NETWORK_LINK_H_
#define SLACKER_RESOURCE_NETWORK_LINK_H_

#include <cstdint>

#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace slacker::resource {

/// One-way propagation + stack latency per message.
inline constexpr SimTime kLinkLatency = 0.0002;

struct NetworkLinkOptions {
  /// Gigabit Ethernet, as in the paper's testbed.
  double bandwidth_bytes_per_sec = 125.0 * static_cast<double>(kMiB);
};

/// Point-to-point link modeled as a FIFO pipe: transmissions serialize
/// at the sender, each taking bytes/bandwidth, then arrive after the
/// propagation latency. The migration stream and control messages share
/// this (in practice the 4-30 MB/s throttle, not the gigabit link, is
/// the migration bottleneck — exactly as in the paper).
class NetworkLink {
 public:
  NetworkLink(sim::Simulator* sim, NetworkLinkOptions options);

  NetworkLink(const NetworkLink&) = delete;
  NetworkLink& operator=(const NetworkLink&) = delete;

  /// Sends `bytes`; `delivered` fires at the receiver when the last
  /// byte arrives.
  void Send(uint64_t bytes, sim::Callback<void()> delivered);

  uint64_t bytes_sent() const { return bytes_sent_; }
  double Utilization() const;
  void ResetStats();

 private:
  sim::Simulator* sim_;
  NetworkLinkOptions options_;
  // Virtual-finish-time pipe: the wire is free again at this instant.
  SimTime wire_free_at_ = 0.0;
  uint64_t bytes_sent_ = 0;
  SimTime busy_time_ = 0.0;
  SimTime stats_epoch_ = 0.0;
};

}  // namespace slacker::resource

#endif  // SLACKER_RESOURCE_NETWORK_LINK_H_
