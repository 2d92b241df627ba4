#ifndef SLACKER_SLA_SLA_H_
#define SLACKER_SLA_SLA_H_

#include <string>

#include "src/common/stats.h"

namespace slacker::sla {

/// A percentile-latency service level agreement, the SLA form the paper
/// evaluates against (e.g., "500 ms at the 99th percentile", §3.2).
struct SlaSpec {
  double percentile = 99.0;
  double max_latency_ms = 500.0;

  std::string ToString() const;
};

/// Whether a complete run's latency sample satisfies the SLA.
bool Satisfies(const SlaSpec& spec, const PercentileTracker& latencies);

}  // namespace slacker::sla

#endif  // SLACKER_SLA_SLA_H_
