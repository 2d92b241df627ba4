#include "src/sla/sla.h"

#include <cstdio>

namespace slacker::sla {

std::string SlaSpec::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%.1f <= %.0f ms", percentile,
                max_latency_ms);
  return buf;
}

bool Satisfies(const SlaSpec& spec, const PercentileTracker& latencies) {
  if (latencies.count() == 0) return true;
  return latencies.Percentile(spec.percentile) <= spec.max_latency_ms;
}

}  // namespace slacker::sla
