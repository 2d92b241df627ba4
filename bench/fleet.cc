#include "bench/fleet.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "src/common/invariant.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/csv_export.h"
#include "src/range/range_directory.h"
#include "src/slacker/metrics.h"

namespace slacker::bench {

double FleetBusySecondsPerTxn() {
  const double page_read =
      0.008 + 16.0 * static_cast<double>(kKiB) /
                  (50.0 * static_cast<double>(kMiB));
  return 10.0 * (7.0 / 8.0) * page_read;
}

RebalancerOptions FleetRebalancerOptions(double setpoint_ms) {
  RebalancerOptions rebalance;
  rebalance.period = 10.0;
  rebalance.migration.backup.chunk_bytes = 256 * kKiB;
  rebalance.migration.prepare.base_seconds = 0.5;
  rebalance.migration.pid.setpoint = setpoint_ms;
  // Hard floor so relief migrations keep making progress even while
  // the overloaded source pins latency above the setpoint; ceiling as
  // in the paper's evaluation.
  rebalance.migration.pid.output_min = 2.0;
  rebalance.migration.pid.output_max = 30.0;
  rebalance.migration.use_target_latency = true;
  rebalance.supervisor.attempt_timeout = 120.0;
  rebalance.max_concurrent_per_source = 2;
  rebalance.max_concurrent_per_target = 1;
  rebalance.max_concurrent_total = 4;
  return rebalance;
}

namespace {
std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}
}  // namespace

JsonWriter::JsonWriter() : out_("{"), first_{true} {}

JsonWriter& JsonWriter::Raw(const char* key, const std::string& text) {
  out_ += first_.back() ? "\n" : ",\n";
  first_.back() = false;
  out_ += std::string(2 * first_.size(), ' ') + '"' + key + "\": " + text;
  return *this;
}

JsonWriter& JsonWriter::Field(const char* key, const char* value) {
  return Raw(key, std::string("\"") + value + "\"");
}

JsonWriter& JsonWriter::Field(const char* key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonWriter& JsonWriter::Field(const char* key, double value) {
  return Raw(key, Number(value));
}

JsonWriter& JsonWriter::Field(const char* key,
                              const std::vector<double>& values) {
  std::string text;
  for (double value : values) {
    text += (text.empty() ? "" : ", ") + Number(value);
  }
  return Raw(key, "[" + text + "]");
}

JsonWriter& JsonWriter::BeginObject(const char* key) {
  Raw(key, "{");
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  SLACKER_CHECK(first_.size() > 1, "EndObject without BeginObject");
  first_.pop_back();
  out_ += '\n' + std::string(2 * first_.size(), ' ') + '}';
  return *this;
}

std::string JsonWriter::str() const {
  SLACKER_CHECK(first_.size() == 1, "JSON object left open");
  return out_ + "\n}\n";
}

void JsonWriter::Save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr && std::fputs(str().c_str(), f) >= 0;
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (ok) {
    std::printf("  (wrote results %s)\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

Fleet::Fleet(const ExperimentOptions& flags,
             const ClusterOptions& cluster_options, bool metrics)
    : flags_(flags) {
  if (!flags.trace_path.empty() || !flags.csv_path.empty()) {
    tracer_ = std::make_unique<obs::Tracer>([this] { return sim_.Now(); });
  }
  cluster_ = std::make_unique<Cluster>(&sim_, cluster_options);
  if (tracer_ != nullptr) {
    cluster_->InstallTracer(tracer_.get());
    cluster_->set_sla_threshold_ms(flags.sla_threshold_ms);
    if (metrics) {
      sampler_ = std::make_unique<sim::PeriodicTimer>(
          &sim_, /*period=*/1.0, [this](SimTime) {
            PublishMetrics(cluster_.get(), tracer_->registry());
          });
      sampler_->Start();
    }
  }
}

Fleet::Fleet(const ExperimentOptions& flags)
    : Fleet(flags, PaperClusterOptions(), /*metrics=*/true) {
  for (int i = 0; i < flags.tenants; ++i) {
    const uint64_t id = i + 1;
    engine::TenantConfig tenant =
        PaperTenantConfig(flags.config, id, flags.size_scale);
    // Each tenant keeps its full database, but the server's memory is
    // split between them (no overprovisioning, §2.1).
    tenant.buffer_pool_bytes /= flags.tenants;
    // AddTenant warms the buffer pool: the paper measures the steady
    // state, not a cold cache.
    AddTenant(0, tenant);

    // Splitting the buffer raises each tenant's miss ratio; scale the
    // arrival rate so total *disk demand* (not txn rate) is preserved.
    const double pages = static_cast<double>(tenant.layout.TotalPages());
    const double miss_single =
        1.0 - static_cast<double>(tenant.BufferPoolPages()) * flags.tenants /
                  pages;
    const double miss_multi =
        1.0 - static_cast<double>(tenant.BufferPoolPages()) / pages;
    const double miss_correction =
        miss_single > 0.0 ? miss_multi / miss_single : 1.0;

    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = PaperInterarrival(flags.config) * flags.tenants *
                             miss_correction / flags.arrival_scale;
    AddPool(id, ycsb, /*seed_salt=*/id * 1000);
  }
  sim_.RunUntil(flags.warmup_seconds);
}

void Fleet::AddTenant(uint64_t server_id,
                      const engine::TenantConfig& tenant) {
  auto db = cluster_->AddTenant(server_id, tenant);
  SLACKER_CHECK(db.ok(), "fleet tenant " + std::to_string(tenant.tenant_id) +
                             ": " + db.status().ToString());
  (*db)->WarmBufferPool();
  tenants_.emplace_back(tenant.tenant_id, server_id);
}

workload::YcsbWorkload* Fleet::AddPool(uint64_t tenant_id,
                                       const workload::YcsbConfig& ycsb,
                                       uint64_t seed_salt) {
  workloads_.push_back(std::make_unique<workload::YcsbWorkload>(
      ycsb, tenant_id, flags_.seed + seed_salt));
  pools_.push_back(std::make_unique<workload::ClientPool>(
      &sim_, workloads_.back().get(), cluster_.get(),
      cluster_->MakeLatencyObserver()));
  pool_specs_.push_back({tenant_id, ycsb, seed_salt});
  cluster_->AttachClientPool(tenant_id, pools_.back().get());
  pools_.back()->Start();
  return workloads_.back().get();
}

void Fleet::AddHarmonicTenants(int tenants, uint64_t records,
                               double util_target) {
  const int servers = static_cast<int>(cluster_->num_servers());
  const int per_server = tenants / servers;
  double weight_sum = 0.0;
  for (int k = 0; k < per_server; ++k) weight_sum += 1.0 / (1.0 + k);
  const double server_txn_rate = util_target / FleetBusySecondsPerTxn();

  for (int i = 0; i < tenants; ++i) {
    const uint64_t tenant_id = i + 1;
    const int k = i / servers;  // Index within the server.
    engine::TenantConfig tenant;
    tenant.tenant_id = tenant_id;
    tenant.layout.record_count = records;
    tenant.buffer_pool_bytes = records * kKiB / 8;
    tenant.cpu_per_op = 0.0003;
    tenant.commit_latency = 0.0005;
    AddTenant(i % servers, tenant);

    const double rate = server_txn_rate * (1.0 / (1.0 + k)) / weight_sum;
    workload::YcsbConfig ycsb;
    ycsb.record_count = records;
    ycsb.mean_interarrival = 1.0 / rate;
    AddPool(tenant_id, ycsb, /*seed_salt=*/tenant_id * 1000);
  }
}

void Fleet::AddDriver(workload::YcsbWorkload* workload,
                      const workload::DiurnalPattern& pattern,
                      SimTime update_period) {
  patterns_.push_back(std::make_unique<workload::DiurnalPattern>(pattern));
  drivers_.push_back(std::make_unique<workload::PatternDriver>(
      &sim_, workload, patterns_.back().get(), update_period));
  drivers_.back()->Start();
}

void Fleet::InjectHotspot(uint64_t server_id) {
  for (const auto& [tenant_id, home] : tenants_) {
    if (home != server_id) continue;
    const auto it = std::find_if(
        pool_specs_.begin(), pool_specs_.end(),
        [&](const PoolSpec& spec) { return spec.tenant_id == tenant_id; });
    SLACKER_CHECK(it != pool_specs_.end(), "hotspot tenant has no pool");
    const PoolSpec first = *it;  // AddPool below grows pool_specs_.
    for (uint64_t extra = 1; extra <= 2; ++extra) {
      AddPool(tenant_id, first.ycsb, first.seed_salt + 7 * extra);
    }
  }
}

uint64_t Fleet::ViolationsBetween(SimTime t0, SimTime t1) const {
  uint64_t count = 0;
  for (const auto& pool : pools_) {
    for (const auto& p : pool->latency_series().points()) {
      if (p.t > t0 && p.t <= t1 && p.value > flags_.sla_threshold_ms) ++count;
    }
  }
  return count;
}

MigrationOptions Fleet::BaseMigration() const {
  MigrationOptions options;
  options.backup.chunk_bytes = 256 * kKiB;
  options.prepare.base_seconds = 2.0;
  options.controller_tick = 1.0;
  // Paper gains (§5.3 footnote).
  options.pid.kp = 0.025;
  options.pid.ki = 0.005;
  options.pid.kd = 0.015;
  options.pid.output_min = 0.0;
  // Max throttle just above the fixed sweep's top: the controller's
  // output is a percentage of this (§4.2.3).
  options.pid.output_max = 30.0;
  options.codec.mode = flags_.codec_mode;
  return options;
}

PercentileTracker Fleet::RunBaseline(SimTime seconds) {
  const SimTime start = sim_.Now();
  sim_.RunUntil(start + seconds);
  return LatenciesBetween(start, sim_.Now());
}

bool Fleet::RunMigration(const MigrationOptions& options,
                         MigrationReport* report, SimTime max_seconds,
                         uint64_t tenant_id) {
  // Shared with the callback: a migration that outlives this call may
  // still finish while Finish() drains the fleet.
  auto finished = std::make_shared<std::optional<MigrationReport>>();
  const Status status = cluster_->StartMigration(
      tenant_id, 1, options,
      [finished](const MigrationReport& r) { *finished = r; });
  if (!status.ok()) {
    std::fprintf(stderr, "StartMigration failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  const SimTime deadline = sim_.Now() + max_seconds;
  while (!finished->has_value() && sim_.Now() < deadline) {
    sim_.RunUntil(std::min(sim_.Now() + 5.0, deadline));
  }
  if (!finished->has_value()) return false;
  *report = **finished;
  return true;
}

PercentileTracker Fleet::LatenciesBetween(SimTime t0, SimTime t1) const {
  PercentileTracker out;
  for (const auto& pool : pools_) {
    for (const auto& p : pool->latency_series().points()) {
      if (p.t >= t0 && p.t <= t1) out.Add(p.value);
    }
  }
  return out;
}

common::TimeSeries Fleet::MergedLatencySeries() const {
  std::vector<common::TracePoint> all;
  for (const auto& pool : pools_) {
    const auto& points = pool->latency_series().points();
    all.insert(all.end(), points.begin(), points.end());
  }
  std::sort(all.begin(), all.end(),
            [](const common::TracePoint& a, const common::TracePoint& b) {
              return a.t < b.t;
            });
  common::TimeSeries merged;
  for (const auto& p : all) merged.Add(p.t, p.value);
  return merged;
}

bool Fleet::Finish() {
  for (auto& driver : drivers_) driver->Stop();
  for (auto& pool : pools_) pool->Stop();
  if (sampler_ != nullptr) sampler_->Stop();
  auto report = [](const Status& status, const char* what,
                   const std::string& path) {
    if (status.ok()) {
      std::printf("  (wrote %s %s)\n", what, path.c_str());
    } else {
      std::fprintf(stderr, "%s export failed: %s\n", what,
                   status.ToString().c_str());
    }
  };
  if (tracer_ != nullptr) {
    if (!flags_.trace_path.empty()) {
      report(obs::WriteChromeTrace(*tracer_, flags_.trace_path), "trace",
             flags_.trace_path);
    }
    if (!flags_.csv_path.empty()) {
      report(obs::WriteCsv(*tracer_->registry(), flags_.csv_path), "metrics",
             flags_.csv_path);
    }
    cluster_->InstallTracer(nullptr);
  }

  const FleetAudit audit = Audit();
  std::printf("  (audit %s: %zu tenants, %zu acked keys, %" PRIu64
              " mismatched, %" PRIu64 " coverage errors, %" PRIu64
              " jobs in flight%s)\n",
              audit.ok() ? "ok" : "FAILED", audit.tenants, audit.acked_keys,
              audit.mismatches, audit.coverage_errors, audit.jobs_in_flight,
              audit.drained ? "" : ", did not drain in 600 s");
  if (!audit.ok()) std::fprintf(stderr, "fleet audit failed\n");
  return audit.ok();
}

uint64_t Fleet::JobsInFlight() {
  uint64_t jobs = 0;
  for (size_t id = 0; id < cluster_->num_servers(); ++id) {
    const MigrationController* controller = cluster_->server(id)->controller();
    if (controller != nullptr) jobs += controller->active_jobs();
  }
  return jobs;
}

bool Fleet::Idle() {
  for (const auto& pool : pools_) {
    if (pool->queue_depth() != 0 || pool->busy_clients() != 0) return false;
  }
  return JobsInFlight() == 0;
}

FleetAudit Fleet::Audit() {
  FleetAudit audit;
  const SimTime deadline = sim_.Now() + 600.0;
  while (!Idle() && sim_.Now() < deadline) sim_.RunUntil(sim_.Now() + 1.0);
  audit.drained = Idle();
  audit.jobs_in_flight = JobsInFlight();
  audit.tenants = tenants_.size();

  for (const auto& [tenant_id, home] : tenants_) {
    workload::AckedWriteLedger merged;
    for (size_t p = 0; p < pools_.size(); ++p) {
      if (pool_specs_[p].tenant_id != tenant_id) continue;
      for (const auto& [key, acked] : pools_[p]->acked_writes()) {
        merged.Record(key, acked);
      }
    }
    audit.acked_keys += merged.size();
    for (const auto& [key, acked] : merged) {
      engine::TenantDb* owner = cluster_->ResolveForKey(tenant_id, key);
      const storage::Record* row =
          owner == nullptr ? nullptr : owner->table().Get(key);
      if (row == nullptr || row->digest != acked.digest) ++audit.mismatches;
    }
    if (!cluster_->directory()->ValidateCoverage(tenant_id).ok()) {
      ++audit.coverage_errors;
    }
    // An orphaned range routes its keys to nowhere.
    for (const range::OwnedRange& owned :
         cluster_->directory()->RangesOf(tenant_id)) {
      if (!cluster_->ServerUp(owned.server) ||
          cluster_->TenantOn(owned.server, tenant_id) == nullptr) {
        ++audit.coverage_errors;
      }
    }
  }
  return audit;
}

}  // namespace slacker::bench
