#ifndef SLACKER_COMMON_UNITS_H_
#define SLACKER_COMMON_UNITS_H_

#include <cstdint>

namespace slacker {

/// Simulated time, in seconds. All simulator and resource-model APIs
/// speak SimTime; transaction latencies are reported in milliseconds
/// (as the paper does) via MsFromSeconds.
using SimTime = double;

constexpr double kMillisPerSecond = 1000.0;

constexpr double MsFromSeconds(SimTime seconds) {
  return seconds * kMillisPerSecond;
}

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * kKiB;
constexpr uint64_t kGiB = 1024 * kMiB;

/// The paper quotes throttle rates in MB/sec; internally all sizes are
/// bytes and all rates bytes/sec.
constexpr double BytesPerSecFromMBps(double mbps) {
  return mbps * static_cast<double>(kMiB);
}
constexpr double MBpsFromBytesPerSec(double bps) {
  return bps / static_cast<double>(kMiB);
}

}  // namespace slacker

#endif  // SLACKER_COMMON_UNITS_H_
