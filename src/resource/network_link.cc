#include "src/resource/network_link.h"

#include <algorithm>
#include <utility>

namespace slacker::resource {

NetworkLink::NetworkLink(sim::Simulator* sim, NetworkLinkOptions options)
    : sim_(sim), options_(options) {}

void NetworkLink::Send(uint64_t bytes, sim::Callback<void()> delivered) {
  const SimTime transmit =
      static_cast<double>(bytes) / options_.bandwidth_bytes_per_sec;
  const SimTime start = std::max(sim_->Now(), wire_free_at_);
  wire_free_at_ = start + transmit;
  busy_time_ += transmit;
  bytes_sent_ += bytes;
  const SimTime arrival = wire_free_at_ + kLinkLatency;
  sim_->At(arrival, std::move(delivered));
}

double NetworkLink::Utilization() const {
  const SimTime elapsed = sim_->Now() - stats_epoch_;
  if (elapsed <= 0.0) return 0.0;
  double util = busy_time_ / elapsed;
  return util > 1.0 ? 1.0 : util;
}

void NetworkLink::ResetStats() {
  busy_time_ = 0.0;
  bytes_sent_ = 0;
  stats_epoch_ = sim_->Now();
}

}  // namespace slacker::resource
