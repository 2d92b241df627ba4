#include "src/slacker/metrics.h"

#include <cstdio>
#include <sstream>
#include <utility>

namespace slacker {

ClusterMetrics CollectMetrics(Cluster* cluster) {
  ClusterMetrics metrics;
  metrics.time = cluster->simulator()->Now();
  metrics.servers.reserve(cluster->num_servers());
  for (size_t sid = 0; sid < cluster->num_servers(); ++sid) {
    Server* server = cluster->server(sid);
    ServerMetrics sm;
    sm.server_id = sid;
    sm.up = server->up();
    sm.disk_utilization = server->disk()->Utilization();
    sm.cpu_utilization = server->cpu()->Utilization();
    sm.disk_queue_depth = server->disk()->QueueDepth();
    sm.window_latency_ms =
        server->monitor()->WindowAverageMs(metrics.time);
    const std::vector<uint64_t> tenant_ids = server->tenants()->TenantIds();
    sm.tenants.reserve(tenant_ids.size());
    for (uint64_t tenant_id : tenant_ids) {
      engine::TenantDb* db = server->tenants()->Get(tenant_id);
      TenantMetrics tm;
      tm.tenant_id = tenant_id;
      tm.rows = db->table().size();
      tm.data_bytes = db->DataBytes();
      tm.binlog_bytes = db->binlog()->total_bytes();
      tm.buffer_hit_rate = db->buffer_pool()->HitRate();
      tm.ops_executed = db->ops_executed();
      tm.frozen = db->frozen();
      MigrationJob* job = server->controller() == nullptr
                              ? nullptr
                              : server->controller()->ActiveJob(tenant_id);
      tm.migrating = job != nullptr;
      if (tm.migrating) {
        ++metrics.active_migrations;
        tm.migration_phase = MigrationPhaseName(job->phase());
        tm.migration_rate_mbps = job->current_rate_mbps();
      }
      sm.tenants.push_back(tm);
    }
    metrics.servers.push_back(std::move(sm));
  }
  return metrics;
}

std::string ClusterMetrics::ToString() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "t=%.1fs  migrations in flight: %zu\n", time,
                active_migrations);
  out << line;
  for (const ServerMetrics& s : servers) {
    std::snprintf(line, sizeof(line),
                  "  server %llu: disk %3.0f%%  cpu %3.0f%%  queue %zu  "
                  "latency %.0f ms%s\n",
                  static_cast<unsigned long long>(s.server_id),
                  s.disk_utilization * 100.0, s.cpu_utilization * 100.0,
                  s.disk_queue_depth, s.window_latency_ms,
                  s.up ? "" : "  [down]");
    out << line;
    for (const TenantMetrics& t : s.tenants) {
      char migrating[64] = "";
      if (t.migrating) {
        std::snprintf(migrating, sizeof(migrating),
                      "  [migrating] %s %.1f MB/s", t.migration_phase.c_str(),
                      t.migration_rate_mbps);
      }
      std::snprintf(
          line, sizeof(line),
          "    tenant %llu: %llu rows (%.0f MiB)  hit %.2f  ops %llu%s%s\n",
          static_cast<unsigned long long>(t.tenant_id),
          static_cast<unsigned long long>(t.rows),
          static_cast<double>(t.data_bytes) / kMiB, t.buffer_hit_rate,
          static_cast<unsigned long long>(t.ops_executed),
          t.frozen ? "  [frozen]" : "", migrating);
      out << line;
    }
  }
  return out.str();
}

void PublishMetrics(Cluster* cluster, obs::MetricRegistry* registry) {
  const ClusterMetrics metrics = CollectMetrics(cluster);
  for (const ServerMetrics& s : metrics.servers) {
    const std::string labels = "server=" + std::to_string(s.server_id);
    registry->FindOrCreateGauge("disk_util", labels)->Set(s.disk_utilization);
    registry->FindOrCreateGauge("cpu_util", labels)->Set(s.cpu_utilization);
    registry->FindOrCreateGauge("disk_queue_depth", labels)
        ->Set(static_cast<double>(s.disk_queue_depth));
    registry->FindOrCreateGauge("window_latency_ms", labels)
        ->Set(s.window_latency_ms);
  }
  registry->FindOrCreateGauge("active_migrations")
      ->Set(static_cast<double>(metrics.active_migrations));
  registry->SampleSeries(metrics.time);
}

}  // namespace slacker
