#include "bench/fleet.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/invariant.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/csv_export.h"

namespace slacker::bench {

void ParseFleetFlags(
    int argc, char** argv, FleetFlags* flags,
    std::initializer_list<std::pair<const char*, bool*>> switches) {
  const bool takes_fleet_size = flags->servers > 0;
  const bool takes_ranges = flags->ranges > 0;
  const bool takes_json = !flags->json_path.empty();
  auto usage = [&](const std::string& problem) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [--smoke] [fleet flags: --json PATH, "
                 "--servers N, --fleet-tenants T, --ranges R] [shared bench "
                 "flags]\n",
                 argv[0], problem.c_str(), argv[0]);
    std::exit(2);
  };
  // The value after argv[*i]: a whole base-10 integer >= 1.
  auto positive = [&](int* i) {
    const std::string name = argv[*i];
    if (*i + 1 >= argc) usage(name + " needs a value");
    const char* text = argv[++*i];
    const char* end = text + std::strlen(text);
    int value = 0;
    const auto [last, error] = std::from_chars(text, end, value);
    if (error != std::errc() || last != end || value < 1) {
      usage(name + " must be a positive integer, not '" + text + "'");
    }
    return value;
  };
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool matched = false;
    for (const auto& [name, flag] : switches) {
      if (std::strcmp(arg, name) == 0) *flag = matched = true;
    }
    if (matched) continue;
    if (std::strcmp(arg, "--smoke") == 0) {
      flags->smoke = true;
    } else if (takes_json && std::strcmp(arg, "--json") == 0 &&
               i + 1 < argc) {
      flags->json_path = argv[++i];
    } else if (takes_fleet_size && std::strcmp(arg, "--servers") == 0) {
      flags->servers = positive(&i);
    } else if (takes_fleet_size && std::strcmp(arg, "--fleet-tenants") == 0) {
      flags->tenants = positive(&i);
    } else if (takes_ranges && std::strcmp(arg, "--ranges") == 0) {
      flags->ranges = static_cast<size_t>(positive(&i));
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (takes_fleet_size && flags->tenants % flags->servers != 0) {
    usage("--fleet-tenants " + std::to_string(flags->tenants) +
          " is not a multiple of --servers " +
          std::to_string(flags->servers));
  }
  ApplyCommandLine(static_cast<int>(rest.size()), rest.data(),
                   &flags->options);
}

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
      const bool ok = acked.deleted
                          ? row == nullptr
                          : row != nullptr && row->digest == acked.digest;
      if (!ok) ++audit.mismatches;
    }
    if (!cluster_->range_directory()->ValidateCoverage(tenant_id).ok()) {
      ++audit.coverage_errors;
    }
  }
  return audit;
}

}  // namespace slacker::bench
