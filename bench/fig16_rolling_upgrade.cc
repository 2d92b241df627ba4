// Figure 16 (extension): migration-as-upgrade. A loaded fleet is
// patched to a new software version two ways and the SLA damage is
// compared:
//
//   baseline  all-at-once restart: every server crashes, patches, and
//             reboots simultaneously — tenants are dark for the whole
//             patch window plus recovery.
//   rolling   RollingUpgradeOrchestrator: canary-first waves drained by
//             the rebalancer inside the latency guard band, patched
//             while empty, refilled, and health-gated.
//
// Reported: upgrade duration and SLA-violation server-seconds for both
// strategies; the rolling run must stay at or below 25% of the
// baseline's violation-seconds and leave the fleet fully upgraded with
// every tenant reachable.
//
//   --smoke        4 servers x 16 tenants, small tenants (CI-sized)
//   --force-abort  abort mid-run after the canary patches; asserts the
//                  rollback restores the original version map instead
//   --servers N    fleet width       --fleet-tenants T   tenant count
// plus the shared bench flags (--seed, --trace, --csv, ...).

#include <cstdio>
#include <memory>
#include <string>

#include "bench/fleet.h"
#include "src/slacker/upgrade.h"

namespace slacker::bench {
namespace {

struct UpgradeParams {
  int servers = 16;
  int tenants = 128;
  uint64_t records_per_tenant = 16 * 1024;
  double util_target = 0.27;
  /// Server downtime while the binary is swapped.
  SimTime patch_seconds = 5.0;
  /// Latency counting as an SLA violation (the PID setpoint).
  double sla_ms = 1000.0;
  /// Versions: fleet starts at v1, upgrades to v2.
  uint32_t from_version = 1;
  uint32_t to_version = 2;
  SimTime deadline_seconds = 3600.0;
};

/// The fig14 fleet shape, started at `params.from_version` so the
/// upgrade has somewhere to go, and warmed up.
std::unique_ptr<Fleet> WarmFleet(const ExperimentOptions& flags,
                                 const UpgradeParams& params) {
  ClusterOptions cluster_options = PaperClusterOptions();
  cluster_options.num_servers = params.servers;
  cluster_options.software_version = params.from_version;
  auto fleet =
      std::make_unique<Fleet>(flags, cluster_options, /*metrics=*/false);
  fleet->AddHarmonicTenants(params.tenants, params.records_per_tenant,
                            params.util_target);
  fleet->sim()->RunUntil(flags.warmup_seconds);
  return fleet;
}

bool AllServersAt(Cluster* cluster, uint32_t version) {
  for (size_t id = 0; id < cluster->num_servers(); ++id) {
    if (cluster->ServerVersion(id) != version) return false;
  }
  return true;
}

RebalancerOptions UpgradeRebalancerOptions(const UpgradeParams& params) {
  RebalancerOptions rebalance = FleetRebalancerOptions(params.sla_ms);
  rebalance.migration.timeout_seconds = 120.0;
  rebalance.supervisor.attempt_timeout = 180.0;
  return rebalance;
}

/// The all-at-once baseline: crash + patch + reboot every server
/// simultaneously, then sample SLA-violation server-seconds (same
/// definition the orchestrator uses) until the fleet has been healthy
/// for 10 consecutive seconds.
struct BaselineResult {
  SimTime seconds = 0.0;
  double violation_seconds = 0.0;
  bool audited = true;  // No baseline run, nothing to fail.
};

BaselineResult RunAllAtOnceBaseline(const ExperimentOptions& flags,
                                    const UpgradeParams& params) {
  const std::unique_ptr<Fleet> fleet = WarmFleet(flags, params);
  sim::Simulator* sim = fleet->sim();
  const SimTime t0 = sim->Now();
  for (int id = 0; id < params.servers; ++id) {
    fleet->cluster()->CrashServer(id);
    (void)fleet->cluster()->SetServerVersion(id, params.to_version);
    fleet->cluster()->RestartServer(id, params.patch_seconds);
  }

  const SimTime step = 0.5;
  BaselineResult result;
  SimTime healthy_since = -1.0;
  SimTime end = t0;
  while (sim->Now() < t0 + params.deadline_seconds) {
    sim->RunUntil(sim->Now() + step);
    const SimTime now = sim->Now();
    const int violating =
        CountViolatingServers(fleet->cluster(), params.sla_ms, now);
    result.violation_seconds += violating * step;
    if (violating == 0) {
      if (healthy_since < 0.0) healthy_since = now;
      if (now - healthy_since >= 10.0) {
        end = healthy_since;
        break;
      }
    } else {
      healthy_since = -1.0;
      end = now;
    }
  }
  result.seconds = end - t0;
  result.audited = fleet->Finish();
  return result;
}

/// The rolling upgrade, aborted once the canary runs the new version
/// when `force_abort`, and its printed rows. The rebalancer and
/// orchestrator die before the caller's Fleet::Finish().
bool RunRolling(Fleet* fleet, const UpgradeParams& params,
                const UpgradeOptions& upgrade_options, bool force_abort,
                const BaselineResult& baseline) {
  sim::Simulator* sim = fleet->sim();
  Rebalancer rebalancer(fleet->cluster(), UpgradeRebalancerOptions(params));
  if (!rebalancer.Start().ok()) {
    std::fprintf(stderr, "rebalancer failed to start\n");
    return false;
  }
  RollingUpgradeOrchestrator upgrade(fleet->cluster(), &rebalancer,
                                     upgrade_options);
  UpgradeReport report;
  bool done = false;
  if (!upgrade
           .Start([&](const UpgradeReport& r) {
             report = r;
             done = true;
           })
           .ok()) {
    std::fprintf(stderr, "upgrade failed to start\n");
    return false;
  }
  bool aborted = false;
  const SimTime deadline = sim->Now() + params.deadline_seconds;
  while (!done && sim->Now() < deadline) {
    sim->RunUntil(sim->Now() + 1.0);
    if (force_abort && !aborted &&
        fleet->cluster()->ServerVersion(0) == params.to_version) {
      upgrade.Abort("forced abort (bench)");
      aborted = true;
    }
  }
  rebalancer.Stop();
  bool reachable = true;
  for (int i = 0; i < params.tenants; ++i) {
    reachable = reachable && fleet->cluster()->Resolve(i + 1) != nullptr;
  }

  bool ok = false;
  if (force_abort) {
    PrintHeader("Figure 16 (forced abort)",
                "rollback restores the original version map");
    PrintRow("abort issued after canary patch", "yes", aborted ? "yes" : "NO");
    PrintRow("run resolved", "aborted",
             done && report.status.code() == StatusCode::kAborted
                 ? "aborted"
                 : "NO");
    PrintRow("rolled back", "yes", report.rolled_back ? "yes" : "NO");
    const bool versions_restored =
        AllServersAt(fleet->cluster(), params.from_version);
    PrintRow("all servers back at v" + std::to_string(params.from_version),
             "yes", versions_restored ? "yes" : "NO");
    PrintRow("migrations in flight at end", "0",
             std::to_string(rebalancer.inflight()));
    PrintRow("all tenants reachable", "yes", reachable ? "yes" : "NO");
    ok = aborted && done && report.status.code() == StatusCode::kAborted &&
         report.rolled_back && versions_restored &&
         rebalancer.inflight() == 0 && reachable;
    PrintRow("forced abort handled", "yes", ok ? "yes" : "NO");
  } else {
    const bool upgraded = AllServersAt(fleet->cluster(), params.to_version);
    const double ratio =
        baseline.violation_seconds > 0.0
            ? report.total_violation_seconds / baseline.violation_seconds
            : (report.total_violation_seconds > 0.0 ? 1e9 : 0.0);

    PrintHeader("Figure 16",
                "rolling upgrade vs all-at-once restart under load");
    PrintRow("fleet", "-",
             std::to_string(params.servers) + " servers, " +
                 std::to_string(params.tenants) + " tenants, v" +
                 std::to_string(params.from_version) + " -> v" +
                 std::to_string(params.to_version));
    PrintRow("all-at-once: duration / violation server-s", "short but dark",
             FormatSeconds(baseline.seconds) + " / " +
                 FormatSeconds(baseline.violation_seconds));
    PrintRow("rolling: duration / violation server-s", "longer but live",
             (done ? FormatSeconds(report.DurationSeconds()) : "DNF") +
                 " / " + FormatSeconds(report.total_violation_seconds));
    PrintRow("rolling waves completed", "-",
             std::to_string(report.waves_completed));
    PrintRow("evacuation migrations ok / failed", "all ok",
             std::to_string(rebalancer.stats().migrations_ok) + " / " +
                 std::to_string(rebalancer.stats().migrations_failed));
    char ratio_buf[32];
    std::snprintf(ratio_buf, sizeof(ratio_buf), "%.0f%%", ratio * 100.0);
    PrintRow("rolling / baseline violation ratio", "<= 25%", ratio_buf);
    PrintRow("fleet fully upgraded", "yes", upgraded ? "yes" : "NO");
    PrintRow("all tenants reachable", "yes", reachable ? "yes" : "NO");
    ok = done && report.status.ok() && upgraded && reachable &&
         ratio <= 0.25;
    PrintRow("rolling upgrade beats restart", "yes", ok ? "yes" : "NO");
  }
  return ok;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using slacker::UpgradeOptions;

  UpgradeParams params;
  FleetFlags fleet_flags("", params.servers, params.tenants);
  bool force_abort = false;
  ParseFleetFlags(argc, argv, &fleet_flags, {{"--force-abort", &force_abort}});
  params.servers = fleet_flags.servers;
  params.tenants = fleet_flags.tenants;
  if (fleet_flags.smoke) {
    params.servers = 4;
    params.tenants = 16;
    params.records_per_tenant = 8 * 1024;
    params.deadline_seconds = 1200.0;
  }
  ExperimentOptions flags = fleet_flags.options;
  flags.sla_threshold_ms = params.sla_ms;

  UpgradeOptions upgrade_options;
  upgrade_options.target_version = params.to_version;
  upgrade_options.wave_size = fleet_flags.smoke ? 2 : 4;
  upgrade_options.patch_seconds = params.patch_seconds;
  upgrade_options.poll_period = 1.0;
  upgrade_options.observe_seconds = 5.0;
  upgrade_options.drain_timeout = 900.0;
  upgrade_options.sla_ms = params.sla_ms;
  upgrade_options.max_violation_seconds = 120.0;
  upgrade_options.max_failed_migrations = 50;

  // The forced-abort mode skips the baseline and pulls the plug once
  // the canary runs the new version.
  BaselineResult baseline;
  if (!force_abort) baseline = RunAllAtOnceBaseline(flags, params);

  const std::unique_ptr<Fleet> fleet = WarmFleet(flags, params);
  const bool ok =
      RunRolling(fleet.get(), params, upgrade_options, force_abort, baseline);
  const bool audited = fleet->Finish() && baseline.audited;
  return ok && audited ? 0 : 1;
}
