#include "bench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/obs/chrome_trace.h"
#include "src/obs/csv_export.h"

namespace slacker::bench {

namespace {
ExperimentOptions* GlobalFlagOptions() {
  static ExperimentOptions options;
  return &options;
}
}  // namespace

ExperimentOptions FlagOptions() { return *GlobalFlagOptions(); }

void ApplyCommandLine(int argc, char** argv, ExperimentOptions* options) {
  auto value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s (ignored)\n", argv[*i]);
      return nullptr;
    }
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--trace") == 0) {
      if ((v = value(&i)) != nullptr) options->trace_path = v;
    } else if (std::strcmp(arg, "--csv") == 0) {
      if ((v = value(&i)) != nullptr) options->csv_path = v;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((v = value(&i)) != nullptr)
        options->seed = static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(arg, "--tenants") == 0) {
      if ((v = value(&i)) != nullptr)
        options->tenants = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (std::strcmp(arg, "--size-scale") == 0) {
      if ((v = value(&i)) != nullptr)
        options->size_scale = std::strtod(v, nullptr);
    } else if (std::strcmp(arg, "--arrival-scale") == 0) {
      if ((v = value(&i)) != nullptr)
        options->arrival_scale = std::strtod(v, nullptr);
    } else if (std::strcmp(arg, "--warmup") == 0) {
      if ((v = value(&i)) != nullptr)
        options->warmup_seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(arg, "--sla-ms") == 0) {
      if ((v = value(&i)) != nullptr)
        options->sla_threshold_ms = std::strtod(v, nullptr);
    } else if (std::strcmp(arg, "--codec") == 0) {
      if ((v = value(&i)) != nullptr) {
        const Status parsed = codec::ParseCodecMode(v, &options->codec_mode);
        if (!parsed.ok()) {
          std::fprintf(stderr, "bad --codec value %s (ignored): %s\n", v,
                       parsed.ToString().c_str());
        }
      }
    } else {
      std::fprintf(stderr, "unknown flag %s (ignored)\n", arg);
    }
  }
  *GlobalFlagOptions() = *options;
}

ClusterOptions PaperClusterOptions() {
  ClusterOptions options;
  options.num_servers = 3;  // Source, target, (spare) — as in Fig. 10.
  // 2011-era SATA disk: ~8 ms positioning, 50 MB/s media rate. A 16 KiB
  // page read costs ~8.3 ms; a 512 KiB migration chunk interleaved with
  // OLTP reads costs ~18 ms, capping a fully contended migration near
  // 27 MB/s — bracketing the paper's observed slack bounds.
  options.disk.seek_time = 0.008;
  options.disk.transfer_bytes_per_sec = 50.0 * static_cast<double>(kMiB);
  options.cpu.cores = 4;  // Quad-core Xeon.
  // Gigabit Ethernet.
  options.link.bandwidth_bytes_per_sec = 125.0 * static_cast<double>(kMiB);
  return options;
}

engine::TenantConfig PaperTenantConfig(PaperConfig config, uint64_t tenant_id,
                                       double size_scale) {
  engine::TenantConfig tenant;
  tenant.tenant_id = tenant_id;
  tenant.layout.record_count =
      static_cast<uint64_t>(static_cast<double>(kGiB / kKiB) * size_scale);
  tenant.buffer_pool_bytes = static_cast<uint64_t>(
      static_cast<double>(config == PaperConfig::kCaseStudy ? 256 * kMiB
                                                            : 128 * kMiB) *
      size_scale);
  tenant.cpu_per_op = 0.0003;
  tenant.commit_latency = 0.0005;
  return tenant;
}

double PaperInterarrival(PaperConfig config) {
  // Calibrated so the paper's anchors hold: case study — baseline
  // ≈ 100 ms, 4/8/12 MB/s fixed throttles land near 150/300/1000 ms and
  // 16 MB/s exceeds the slack (unbounded growth, Fig. 6); evaluation —
  // baseline ≈ 100 ms, ~30% disk utilization, latency rising through
  // the 5-20 MB/s sweep with the slack knee near 23-25 MB/s (Fig. 11).
  return config == PaperConfig::kCaseStudy ? 0.163 : 0.25;
}

Testbed::Testbed(const ExperimentOptions& options) : options_(options) {
  if (!options.trace_path.empty() || !options.csv_path.empty()) {
    tracer_ =
        std::make_unique<obs::Tracer>([this] { return sim_.Now(); });
  }
  cluster_ = std::make_unique<Cluster>(&sim_, PaperClusterOptions());
  if (tracer_ != nullptr) {
    // Before tenants exist, so their op metrics attach on creation.
    cluster_->InstallTracer(tracer_.get());
    cluster_->set_sla_threshold_ms(options.sla_threshold_ms);
    sampler_ = std::make_unique<sim::PeriodicTimer>(
        &sim_, /*period=*/1.0, [this](SimTime) {
          PublishMetrics(cluster_.get(), tracer_->registry());
        });
    sampler_->Start();
  }
  for (int i = 0; i < options.tenants; ++i) {
    const uint64_t id = i + 1;
    engine::TenantConfig tenant =
        PaperTenantConfig(options.config, id, options.size_scale);
    // Fig. 13b: each tenant keeps its full database, but the server's
    // memory is split between them (no overprovisioning, §2.1) and the
    // total arrival rate is divided so the aggregate server workload
    // matches the single-tenant runs.
    tenant.buffer_pool_bytes /= options.tenants;
    auto db = cluster_->AddTenant(0, tenant);
    if (!db.ok()) continue;
    // Measure the steady state the paper measures, not a cold cache.
    (*db)->WarmBufferPool();

    // Splitting the buffer raises each tenant's miss ratio; scale the
    // arrival rate so total *disk demand* (not txn rate) is preserved.
    const double pages =
        static_cast<double>(tenant.layout.TotalPages());
    const double miss_single =
        1.0 - static_cast<double>(tenant.BufferPoolPages()) *
                  options.tenants / pages;
    const double miss_multi =
        1.0 - static_cast<double>(tenant.BufferPoolPages()) / pages;
    const double miss_correction =
        miss_single > 0.0 ? miss_multi / miss_single : 1.0;

    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = PaperInterarrival(options.config) *
                             options.tenants * miss_correction /
                             options.arrival_scale;
    workloads_.push_back(std::make_unique<workload::YcsbWorkload>(
        ycsb, id, options.seed + id * 1000));
    pools_.push_back(std::make_unique<workload::ClientPool>(
        &sim_, workloads_.back().get(), cluster_.get(),
        cluster_->MakeLatencyObserver()));
    cluster_->AttachClientPool(id, pools_.back().get());
    pools_.back()->Start();
  }
  sim_.RunUntil(options.warmup_seconds);
}

Testbed::~Testbed() {
  StopAll();
  FinishObservability();
}

void Testbed::StopAll() {
  for (auto& pool : pools_) pool->Stop();
}

void Testbed::FinishObservability() {
  // The sampler lives from construction to the first call here, so the
  // outputs are written once.
  if (sampler_ == nullptr) return;
  sampler_.reset();
  if (!options_.trace_path.empty()) {
    const Status status =
        obs::WriteChromeTrace(*tracer_, options_.trace_path);
    if (status.ok()) {
      std::printf("  (wrote trace %s — open in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  options_.trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.ToString().c_str());
    }
  }
  if (!options_.csv_path.empty()) {
    const Status status =
        obs::WriteCsv(*tracer_->registry(), options_.csv_path);
    if (status.ok()) {
      std::printf("  (wrote metrics %s)\n", options_.csv_path.c_str());
    } else {
      std::fprintf(stderr, "csv export failed: %s\n",
                   status.ToString().c_str());
    }
  }
  // The tracer itself lives until the cluster is gone: an unfinished
  // migration job still ends its spans in it when destroyed.
  cluster_->InstallTracer(nullptr);
}

MigrationOptions Testbed::BaseMigration() const {
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
  options.codec.mode = options_.codec_mode;
  return options;
}

PercentileTracker Testbed::RunBaseline(SimTime seconds) {
  const SimTime start = sim_.Now();
  sim_.RunUntil(start + seconds);
  return LatenciesBetween(start, sim_.Now());
}

bool Testbed::RunMigration(const MigrationOptions& options,
                           MigrationReport* report, int index,
                           SimTime max_seconds, SimTime drain) {
  bool done = false;
  const Status status = cluster_->StartMigration(
      tenant_id(index), 1, options, [&](const MigrationReport& r) {
        *report = r;
        done = true;
      });
  if (!status.ok()) {
    std::fprintf(stderr, "StartMigration failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  const SimTime deadline = sim_.Now() + max_seconds;
  while (!done && sim_.Now() < deadline) {
    sim_.RunUntil(std::min(sim_.Now() + 5.0, deadline));
  }
  if (done && drain > 0.0) sim_.RunUntil(sim_.Now() + drain);
  return done;
}

PercentileTracker Testbed::LatenciesBetween(SimTime t0, SimTime t1) const {
  PercentileTracker out;
  for (const auto& pool : pools_) {
    const auto& points = pool->latency_series().points();
    for (const auto& p : points) {
      if (p.t >= t0 && p.t <= t1) out.Add(p.value);
    }
  }
  return out;
}

workload::TimeSeries Testbed::MergedLatencySeries() const {
  // Collect and re-sort by completion time (pools are individually
  // sorted already).
  std::vector<workload::TracePoint> all;
  for (const auto& pool : pools_) {
    const auto& points = pool->latency_series().points();
    all.insert(all.end(), points.begin(), points.end());
  }
  std::sort(all.begin(), all.end(),
            [](const workload::TracePoint& a, const workload::TracePoint& b) {
              return a.t < b.t;
            });
  workload::TimeSeries merged;
  for (const auto& p : all) merged.Add(p.t, p.value);
  return merged;
}

void PrintHeader(const std::string& id, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), description.c_str());
  std::printf("================================================================\n");
}

void PrintRow(const std::string& name, const std::string& paper,
              const std::string& measured) {
  std::printf("  %-38s | paper: %-18s | measured: %s\n", name.c_str(),
              paper.c_str(), measured.c_str());
}

void PrintSeries(const std::string& name,
                 const std::vector<workload::TracePoint>& points,
                 double col_seconds, double value_scale) {
  if (points.empty()) {
    std::printf("  %s: (no data)\n", name.c_str());
    return;
  }
  std::printf("  %s:\n", name.c_str());
  std::printf("    %8s  %12s\n", "t(s)", "value");
  double next = points.front().t;
  for (const auto& p : points) {
    if (p.t + 1e-9 < next) continue;
    std::printf("    %8.1f  %12.1f\n", p.t, p.value * value_scale);
    next = p.t + col_seconds;
  }
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f ms", ms);
  return buf;
}

std::string FormatMbps(double mbps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MB/s", mbps);
  return buf;
}

std::string FormatSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f s", s);
  return buf;
}

void MaybeWriteCsv(const std::string& name,
                   const workload::TimeSeries& series,
                   const std::string& value_name) {
  const char* dir = std::getenv("SLACKER_BENCH_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::string csv = series.ToCsv(value_name);
  std::fwrite(csv.data(), 1, csv.size(), f);
  std::fclose(f);
  std::printf("  (wrote %s)\n", path.c_str());
}

}  // namespace slacker::bench
