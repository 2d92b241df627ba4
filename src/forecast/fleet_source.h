#ifndef SLACKER_FORECAST_FLEET_SOURCE_H_
#define SLACKER_FORECAST_FLEET_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/simulator.h"

namespace slacker::obs {
class Tracer;  // src/obs/trace.h — optional, nullptr means untraced.
}

namespace slacker::forecast {

/// What the forecast sampler needs from the fleet it observes. Cluster
/// (src/slacker) implements this, keeping the dependency pointing
/// downward — slacker depends on forecast, never the reverse — so the
/// forecast subsystem stays reusable and the module graph acyclic.
class FleetOpsSource {
 public:
  virtual ~FleetOpsSource() = default;

  virtual sim::Simulator* simulator() = 0;
  /// Event/metric sink; nullptr disables forecast telemetry.
  virtual obs::Tracer* tracer() { return nullptr; }

  /// Servers are ids [0, num_servers()).
  virtual size_t num_servers() const = 0;

  /// Tenant ids currently placed on `server_id`, in tenant-id order
  /// (the sampler walks them to aggregate per-server load).
  virtual std::vector<uint64_t> SampledTenantsOn(uint64_t server_id) = 0;

  /// Cumulative executed-op counter of a tenant's live instance on
  /// `server_id`. Returns false when the tenant has no live instance
  /// there (mid-handover, crashed): the sampler then records zero
  /// throughput for the bucket and keeps the previous baseline.
  virtual bool TenantOpsExecuted(uint64_t server_id, uint64_t tenant_id,
                                 uint64_t* ops) = 0;
};

}  // namespace slacker::forecast

#endif  // SLACKER_FORECAST_FLEET_SOURCE_H_
