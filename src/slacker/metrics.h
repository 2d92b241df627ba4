#ifndef SLACKER_SLACKER_METRICS_H_
#define SLACKER_SLACKER_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metric_registry.h"
#include "src/slacker/cluster.h"

namespace slacker {

/// One tenant's state at sample time.
struct TenantMetrics {
  uint64_t tenant_id = 0;
  uint64_t rows = 0;
  uint64_t data_bytes = 0;
  uint64_t binlog_bytes = 0;
  double buffer_hit_rate = 0.0;
  uint64_t ops_executed = 0;
  bool frozen = false;
  bool migrating = false;
  /// When migrating: current phase name and live throttle rate.
  std::string migration_phase;
  double migration_rate_mbps = 0.0;
};

/// One server's state at sample time.
struct ServerMetrics {
  uint64_t server_id = 0;
  /// False while the server is crashed (tenant list is then empty).
  bool up = true;
  double disk_utilization = 0.0;
  double cpu_utilization = 0.0;
  size_t disk_queue_depth = 0;
  /// Sliding-window average latency the controller would see (ms).
  double window_latency_ms = 0.0;
  std::vector<TenantMetrics> tenants;
};

/// Point-in-time snapshot of the whole cluster.
struct ClusterMetrics {
  SimTime time = 0.0;
  std::vector<ServerMetrics> servers;
  size_t active_migrations = 0;

  /// Multi-line human-readable dump (the `slacker-top` view).
  std::string ToString() const;
};

/// Samples a snapshot now.
ClusterMetrics CollectMetrics(Cluster* cluster);

/// The one metrics sampler: takes one CollectMetrics snapshot and
/// publishes it into `registry` as per-server gauges (disk_util,
/// cpu_util, disk_queue_depth, window_latency_ms) plus
/// active_migrations, then appends a row set with SampleSeries at the
/// snapshot's time. The first call creates the gauges in that order.
/// Drive it from a PeriodicTimer; each call reads every server's
/// WindowAverageMs once, which refreshes the monitor's last average.
void PublishMetrics(Cluster* cluster, obs::MetricRegistry* registry);

}  // namespace slacker

#endif  // SLACKER_SLACKER_METRICS_H_
