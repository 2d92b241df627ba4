// slacker_lab — a command-line scenario runner for exploring migration
// slack without writing code. Configure the tenant, workload, and
// throttle from flags; get the paper-style measurements back (plus an
// optional live metrics feed).
//
//   ./build/examples/slacker_lab --help
//   ./build/examples/slacker_lab --tenant-mb=256 --rate=3 --setpoint=800
//   ./build/examples/slacker_lab --throttle=fixed --mbps=16 --watch
//   ./build/examples/slacker_lab --throttle=adaptive --write-frac=0.4
//
// Exit code 0 iff the migration completed with matching digests and no
// failed transactions.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/sim/simulator.h"
#include "src/slacker/cluster.h"
#include "src/slacker/metrics.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

using namespace slacker;

namespace {

struct LabOptions {
  double tenant_mb = 256.0;
  double buffer_mb = 32.0;
  double rate_txn_per_sec = 4.0;
  double write_fraction = 0.15;
  double scan_fraction = 0.0;
  std::string throttle = "pid";  // pid | adaptive | fixed | stopcopy
  double mbps = 16.0;            // For fixed / stopcopy.
  double setpoint = 1000.0;      // For pid / adaptive.
  double max_mbps = 30.0;
  uint64_t seed = 42;
  bool watch = false;  // Print metrics every 10 simulated seconds.
};

void PrintHelp() {
  std::puts(
      "slacker_lab: run one migration scenario and report the paper's\n"
      "measurements.\n\n"
      "  --tenant-mb=N      tenant size in MiB            (default 256)\n"
      "  --buffer-mb=N      buffer pool in MiB            (default 32)\n"
      "  --rate=N           transactions per second       (default 4)\n"
      "  --write-frac=F     update fraction of ops        (default 0.15)\n"
      "  --scan-frac=F      scan fraction of ops          (default 0)\n"
      "  --throttle=KIND    pid|adaptive|fixed|stopcopy   (default pid)\n"
      "  --mbps=N           rate for fixed/stopcopy       (default 16)\n"
      "  --setpoint=MS      latency target for pid        (default 1000)\n"
      "  --max-mbps=N       controller output ceiling     (default 30)\n"
      "  --seed=N           workload seed                 (default 42)\n"
      "  --watch            print cluster metrics every 10 s\n");
}

bool ParseFlag(const char* arg, const char* name, double* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::atof(arg + len + 1);
  return true;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  LabOptions lab;
  for (int i = 1; i < argc; ++i) {
    double seed_double = 0;
    if (ParseFlag(argv[i], "--tenant-mb", &lab.tenant_mb) ||
        ParseFlag(argv[i], "--buffer-mb", &lab.buffer_mb) ||
        ParseFlag(argv[i], "--rate", &lab.rate_txn_per_sec) ||
        ParseFlag(argv[i], "--write-frac", &lab.write_fraction) ||
        ParseFlag(argv[i], "--scan-frac", &lab.scan_fraction) ||
        ParseFlag(argv[i], "--throttle", &lab.throttle) ||
        ParseFlag(argv[i], "--mbps", &lab.mbps) ||
        ParseFlag(argv[i], "--setpoint", &lab.setpoint) ||
        ParseFlag(argv[i], "--max-mbps", &lab.max_mbps)) {
      continue;
    }
    if (ParseFlag(argv[i], "--seed", &seed_double)) {
      lab.seed = static_cast<uint64_t>(seed_double);
      continue;
    }
    if (std::strcmp(argv[i], "--watch") == 0) {
      lab.watch = true;
      continue;
    }
    PrintHelp();
    return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
  }

  // --- Testbed.
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);

  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count =
      static_cast<uint64_t>(lab.tenant_mb * kMiB / kKiB);
  tenant.buffer_pool_bytes = static_cast<uint64_t>(lab.buffer_mb * kMiB);
  auto db = cluster.AddTenant(0, tenant);
  if (!db.ok()) {
    std::fprintf(stderr, "AddTenant: %s\n", db.status().ToString().c_str());
    return 2;
  }
  (*db)->WarmBufferPool();

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mix.read = 1.0 - lab.write_fraction - lab.scan_fraction;
  ycsb.mix.update = lab.write_fraction;
  ycsb.mix.scan = lab.scan_fraction;
  ycsb.mean_interarrival = 1.0 / lab.rate_txn_per_sec;
  if (!ycsb.Validate().ok()) {
    std::fprintf(stderr, "bad workload mix\n");
    return 2;
  }
  workload::YcsbWorkload workload(ycsb, 1, lab.seed);
  workload::ClientPool clients(&sim, &workload, &cluster,
                               cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &clients);
  clients.Start();
  sim.RunUntil(20.0);
  const PercentileTracker baseline = [&] {
    PercentileTracker t;
    for (const auto& p : clients.latency_series().points()) t.Add(p.value);
    return t;
  }();

  // --- Migration.
  MigrationOptions migration;
  if (lab.throttle == "fixed") {
    migration.throttle = ThrottleKind::kFixed;
    migration.fixed_rate_mbps = lab.mbps;
  } else if (lab.throttle == "adaptive") {
    migration.throttle = ThrottleKind::kAdaptivePid;
    migration.pid.setpoint = lab.setpoint;
    migration.pid.output_max = lab.max_mbps;
  } else if (lab.throttle == "stopcopy") {
    migration.mode = MigrationMode::kStopAndCopy;
    migration.throttle = ThrottleKind::kFixed;
    migration.fixed_rate_mbps = lab.mbps;
  } else if (lab.throttle == "pid") {
    migration.throttle = ThrottleKind::kPid;
    migration.pid.setpoint = lab.setpoint;
    migration.pid.output_max = lab.max_mbps;
  } else {
    std::fprintf(stderr, "unknown --throttle=%s\n", lab.throttle.c_str());
    return 2;
  }
  migration.prepare.base_seconds = 1.0;

  // Samples every 10 s even without --watch: each sample reads the
  // servers' window latency, which refreshes the monitors' last average.
  sim::PeriodicTimer metrics(&sim, 10.0, [&](SimTime) {
    const ClusterMetrics m = CollectMetrics(&cluster);
    if (lab.watch) std::fputs(m.ToString().c_str(), stdout);
  });
  metrics.Start();

  std::printf("migrating %.0f MiB tenant (throttle=%s) ...\n", lab.tenant_mb,
              lab.throttle.c_str());
  MigrationReport report;
  bool done = false;
  const SimTime start = sim.Now();
  const Status status = cluster.StartMigration(
      1, 1, migration, [&](const MigrationReport& r) {
        report = r;
        done = true;
      });
  if (!status.ok()) {
    std::fprintf(stderr, "StartMigration: %s\n", status.ToString().c_str());
    return 2;
  }
  while (!done && sim.Now() < start + 7200.0) sim.RunUntil(sim.Now() + 1.0);
  metrics.Stop();
  sim.RunUntil(sim.Now() + 10.0);
  clients.Stop();
  sim.RunUntil(sim.Now() + 10.0);

  // --- Report.
  PercentileTracker during;
  for (const auto& p : clients.latency_series().points()) {
    if (p.t >= start && p.t <= report.end_time) during.Add(p.value);
  }
  std::printf("\nresult:            %s\n", report.status.ToString().c_str());
  std::printf("duration:          %.1f s (snapshot %.1f / prepare %.1f / "
              "delta %.1f / handover %.3f)\n",
              report.DurationSeconds(), report.snapshot_seconds,
              report.prepare_seconds, report.delta_seconds,
              report.handover_seconds);
  std::printf("avg speed:         %.1f MB/s (%llu MiB snapshot, %d delta "
              "rounds)\n",
              report.AverageRateMbps(),
              static_cast<unsigned long long>(report.snapshot_bytes / kMiB),
              report.delta_rounds);
  std::printf("downtime:          %.0f ms\n", report.downtime_ms);
  std::printf("replicas agree:    %s\n", report.digest_match ? "yes" : "NO");
  std::printf("latency baseline:  mean %.0f ms, p95 %.0f ms\n",
              baseline.Mean(), baseline.Percentile(95));
  std::printf("latency during:    mean %.0f ms, p95 %.0f ms, p99 %.0f ms\n",
              during.Mean(), during.Percentile(95), during.Percentile(99));
  std::printf("workload:          %llu txns, %llu failed\n",
              static_cast<unsigned long long>(clients.stats().completed),
              static_cast<unsigned long long>(clients.stats().failed));
  const bool ok = report.status.ok() && report.digest_match &&
                  clients.stats().failed == 0;
  return ok ? 0 : 1;
}
