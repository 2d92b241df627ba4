// Extension: crash-tolerant migration. Quantifies (a) what a target
// crash mid-snapshot costs a supervised migration with and without
// resumable transfer — the resume negotiation should make the retry
// re-stream only what was not yet durably staged — and (b) how much a
// checkpoint shortens post-crash recovery versus a full WAL replay
// from the initial load image.

#include <cstdio>
#include <functional>
#include <string>
#include <tuple>

#include "bench/fleet.h"
#include "src/common/random.h"
#include "src/engine/transaction.h"
#include "src/slacker/fault_injector.h"
#include "src/slacker/migration_supervisor.h"

namespace slacker::bench {
namespace {

struct CrashRunResult {
  bool ok = false;
  int attempts = 0;
  double duration_s = 0.0;
  double streamed_mb = 0.0;
  double resumed_mb = 0.0;
  double downtime_ms = 0.0;
  bool audited = false;
};

/// `path` with `-run` inserted before its extension ("cr.json" becomes
/// "cr-run.json"); empty stays empty, so an untraced run stays untraced.
std::string WithRunSuffix(const std::string& path, const std::string& run) {
  if (path.empty()) return path;
  const size_t dot = path.rfind('.');
  const size_t slash = path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "-" + run;
  }
  return path.substr(0, dot) + "-" + run + path.substr(dot);
}

/// One supervised migration; `run` names it in the --trace and --csv
/// paths, so each of the three runs keeps its own files.
CrashRunResult RunSupervised(const ExperimentOptions& flags,
                             const std::string& run, bool inject_crash,
                             bool allow_resume) {
  ExperimentOptions options = flags;
  options.trace_path = WithRunSuffix(flags.trace_path, run);
  options.csv_path = WithRunSuffix(flags.csv_path, run);
  options.config = PaperConfig::kEvaluation;
  options.size_scale = 0.25;  // 256 MB tenant: minutes, not hours.
  options.warmup_seconds = 10.0;
  Fleet bed(options);

  FaultPlan plan;
  if (inject_crash) {
    // Kill the target ~halfway through the ~16 s snapshot; back up 5 s
    // later.
    plan.CrashAtPhase(/*server_id=*/1, /*watch_tenant=*/1,
                      MigrationPhase::kSnapshot, /*restart_after=*/5.0,
                      /*phase_delay=*/8.0);
  }
  MigrationOptions migration = bed.BaseMigration();
  migration.throttle = ThrottleKind::kFixed;
  migration.fixed_rate_mbps = 16.0;
  migration.timeout_seconds = 30.0;
  migration.allow_resume = allow_resume;

  SupervisorOptions sup;
  sup.max_attempts = 5;
  sup.initial_backoff = 1.0;
  MigrationReport report;
  bool done = false;
  {
    // The injector and supervisor die before Finish() drains the fleet.
    FaultInjector injector(bed.cluster(), plan);
    injector.Arm();
    MigrationSupervisor supervisor(bed.cluster(), 1, 1, migration, sup,
                                   [&](const MigrationReport& r) {
                                     report = r;
                                     done = true;
                                   });
    const SimTime start = bed.sim()->Now();
    if (supervisor.Start().ok()) {
      bed.sim()->RunUntil(start + 3000.0);
      for (const auto& pool : bed.pools()) pool->Stop();
      bed.sim()->RunUntil(bed.sim()->Now() + 10.0);
    }
  }
  CrashRunResult result;
  result.audited = bed.Finish();
  if (!done) return result;

  result.ok = report.status.ok();
  result.attempts = report.attempt_count;
  result.duration_s = report.end_time - report.start_time;
  result.streamed_mb =
      static_cast<double>(report.snapshot_bytes + report.delta_bytes) / kMiB;
  result.resumed_mb = static_cast<double>(report.resumed_bytes) / kMiB;
  result.downtime_ms = report.downtime_ms;
  return result;
}

void PrintCrashRow(const std::string& name, const CrashRunResult& r) {
  char measured[160];
  std::snprintf(measured, sizeof(measured),
                "%s  attempts=%d  dur=%s  streamed=%.0f MB  resumed=%.0f MB",
                r.ok ? "ok" : "FAILED", r.attempts,
                FormatSeconds(r.duration_s).c_str(), r.streamed_mb,
                r.resumed_mb);
  PrintRow(name, "-", measured);
}

struct RecoveryResult {
  /// -1 when the burst or the recovery did not complete.
  double seconds = -1.0;
  bool audited = false;
};

/// Seconds from restart until the tenant serves again, after a write
/// burst that leaves the WAL a multiple of the base image size — the
/// regime where checkpointing pays.
double RecoverySeconds(Fleet* bed, bool with_checkpoint) {
  sim::Simulator& sim = *bed->sim();
  Cluster& cluster = *bed->cluster();
  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 16 * 1024;  // 16 MB base image.
  tenant.buffer_pool_bytes = 32 * kMiB;    // Fully cached: fast writes.
  bed->AddTenant(0, tenant);
  engine::TenantDb* db = cluster.TenantOn(0, 1);

  // 64 MB of WAL: 64 K single-update transactions back to back.
  constexpr int kTxns = 64 * 1024;
  int issued = 0;
  Rng rng(7);
  engine::TxnFrames frames;
  std::function<void()> next = [&] {
    if (issued >= kTxns) return;
    engine::TxnSpec spec;
    spec.tenant_id = 1;
    spec.txn_id = ++issued;
    spec.ops.push_back({engine::OpType::kUpdate,
                        rng.NextBelow(tenant.layout.record_count), 0});
    engine::ExecuteTransaction(&sim, db, std::move(spec), sim.Now(), &frames,
                               [&](const engine::TxnResult&) { next(); });
  };
  next();
  sim.RunUntil(sim.Now() + 3600.0);
  if (issued < kTxns) return -1.0;

  if (with_checkpoint) {
    (void)cluster.CheckpointTenant(1);
    sim.RunUntil(sim.Now() + 10.0);
  }

  cluster.CrashServer(0);
  cluster.RestartServer(0, 1.0);
  const SimTime restart_at = sim.Now() + 1.0;
  // Step until the recovered instance unfreezes.
  for (int i = 0; i < 100000; ++i) {
    sim.RunUntil(sim.Now() + 0.05);
    engine::TenantDb* recovered = cluster.TenantOn(0, 1);
    if (recovered != nullptr && !recovered->frozen()) {
      return sim.Now() - restart_at;
    }
  }
  return -1.0;
}

/// RecoverySeconds on an untraced paper-testbed fleet, then its audit.
RecoveryResult MeasureRecovery(bool with_checkpoint) {
  Fleet bed(ExperimentOptions{}, PaperClusterOptions(), /*metrics=*/false);
  RecoveryResult result;
  result.seconds = RecoverySeconds(&bed, with_checkpoint);
  result.audited = bed.Finish();
  return result;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);

  PrintHeader("ext-crash-recovery (1/2)",
              "supervised migration vs a target crash mid-snapshot "
              "(256 MB tenant, 16 MB/s throttle, restart after 5 s)");
  bool audited = true;
  for (const auto& [name, run, crash, resume] :
       {std::tuple{"no fault", "no-fault", false, true},
        std::tuple{"crash, resume on", "resume-on", true, true},
        std::tuple{"crash, resume off", "resume-off", true, false}}) {
    const CrashRunResult result =
        RunSupervised(flags.options, run, crash, resume);
    PrintCrashRow(name, result);
    audited = result.audited && audited;
  }

  PrintHeader("ext-crash-recovery (2/2)",
              "server restart after a 64 MB WAL burst on a 16 MB "
              "tenant: time until the tenant serves again");
  for (const auto& [name, checkpoint] :
       {std::tuple{"full WAL replay", false},
        std::tuple{"checkpoint + suffix", true}}) {
    const RecoveryResult result = MeasureRecovery(checkpoint);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f s", result.seconds);
    PrintRow(name, "-", buf);
    audited = result.audited && audited;
  }
  return audited ? 0 : 1;
}
