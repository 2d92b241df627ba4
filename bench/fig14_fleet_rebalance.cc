// Figure 14 (extension): fleet-scale autonomic rebalancing. N servers
// host T tenants with skewed per-tenant load; mid-run a hotspot is
// injected by tripling the traffic of every tenant on one server. The
// closed-loop Rebalancer must detect the overloaded server from live
// stats, relieve it through latency-throttled migrations under the
// admission controller's concurrent-migration budget, and converge the
// fleet back to zero overloaded servers. Reported: detection and
// convergence times, migrations executed vs deferred, the concurrency
// high-water mark against the budget, and SLA violation rates before /
// during / after the episode.
//
//   --smoke       4 servers x 16 tenants, short horizon (CI-sized)
//   --servers N   fleet width        --fleet-tenants T   tenant count
// plus the shared bench flags (--seed, --trace, --csv, ...).

#include <cstdio>
#include <string>

#include "bench/fleet.h"
#include "src/slacker/upgrade.h"

namespace slacker::bench {
namespace {

struct FleetParams {
  int servers = 16;
  int tenants = 128;
  /// 1 KiB rows; 16 Ki rows = a 16 MiB tenant.
  uint64_t records_per_tenant = 16 * 1024;
  /// Per-server disk utilization the baseline load is calibrated to.
  double util_target = 0.27;
  /// Calm observation span between rebalancer start and the hotspot.
  SimTime settle_seconds = 30.0;
  /// Give up declaring convergence this long after the hotspot.
  SimTime deadline_seconds = 600.0;
  /// Latency above which a completed transaction counts as an SLA
  /// violation (the migration PID setpoint).
  double sla_ms = 1000.0;
};

std::string FormatRate(uint64_t violations, SimTime seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f / 100 s",
                seconds > 0.0
                    ? 100.0 * static_cast<double>(violations) / seconds
                    : 0.0);
  return buf;
}

/// Warm-up, calm span, hotspot and the 1 Hz poll until convergence;
/// prints the rows and writes the JSON. The rebalancer dies before the
/// caller's Fleet::Finish().
bool RunEpisode(Fleet* fleet, const ExperimentOptions& flags,
                const FleetParams& params, const std::string& json_path) {
  sim::Simulator* sim = fleet->sim();
  sim->RunUntil(flags.warmup_seconds);
  // Sampled before the rebalancer starts owning the stats epochs.
  const double util_before =
      fleet->cluster()->server(0)->disk()->Utilization();

  const RebalancerOptions rebalance = FleetRebalancerOptions(params.sla_ms);
  Rebalancer rebalancer(fleet->cluster(), rebalance);
  if (!rebalancer.Start().ok()) {
    std::fprintf(stderr, "rebalancer failed to start\n");
    return false;
  }

  sim->RunUntil(sim->Now() + params.settle_seconds);

  const SimTime inject_time = sim->Now();
  fleet->InjectHotspot(0);

  // Poll once per simulated second: detection is the first rebalancer
  // tick reporting an overloaded server; convergence is the start of a
  // 30 s span (three control periods) with zero overloaded servers
  // after detection.
  SimTime detect_time = -1.0;
  SimTime zero_since = -1.0;
  SimTime converged_at = -1.0;
  double episode_violation_ss = 0.0;
  const SimTime deadline = inject_time + params.deadline_seconds;
  while (sim->Now() < deadline) {
    sim->RunUntil(sim->Now() + 1.0);
    // Fleet-level SLA damage: one server-second per server whose
    // latency window is above the SLA right now (same accounting as
    // the fig17 predictive-scheduling bench).
    episode_violation_ss += static_cast<double>(CountViolatingServers(
        fleet->cluster(), params.sla_ms, sim->Now()));
    const int overloaded = rebalancer.stats().last_overloaded;
    if (overloaded > 0) {
      if (detect_time < 0.0) detect_time = sim->Now();
      zero_since = -1.0;
    } else if (detect_time >= 0.0 && zero_since < 0.0) {
      zero_since = sim->Now();
    }
    if (detect_time >= 0.0 && zero_since >= 0.0 &&
        sim->Now() - zero_since >= 30.0) {
      converged_at = zero_since;
      break;
    }
  }
  const SimTime end_time = sim->Now();
  rebalancer.Stop();

  const auto& stats = rebalancer.stats();
  const uint64_t before = fleet->ViolationsBetween(
      flags.warmup_seconds, inject_time);
  const SimTime during_end = converged_at >= 0.0 ? converged_at : end_time;
  const uint64_t during = fleet->ViolationsBetween(inject_time, during_end);
  const uint64_t after = fleet->ViolationsBetween(during_end, end_time);

  PrintHeader("Figure 14",
              "fleet rebalance: hotspot relief under a migration budget");
  PrintRow("fleet", "-",
           std::to_string(params.servers) + " servers, " +
               std::to_string(params.tenants) + " tenants");
  PrintRow("hotspot server util before / injected", "~27% -> >70%",
           std::to_string(static_cast<int>(util_before * 100)) + "% -> 3x");
  PrintRow("time to detect", "<= 1 period",
           detect_time >= 0.0 ? FormatSeconds(detect_time - inject_time)
                              : "NOT DETECTED");
  PrintRow("time to converge (zero overloaded)", "minutes, not hours",
           converged_at >= 0.0 ? FormatSeconds(converged_at - inject_time)
                               : "DID NOT CONVERGE");
  PrintRow("migrations ok / failed", "all ok",
           std::to_string(stats.migrations_ok) + " / " +
               std::to_string(stats.migrations_failed));
  PrintRow("plans deferred (budget / guard band)", "-",
           std::to_string(stats.deferred_budget) + " / " +
               std::to_string(stats.deferred_guard_band));
  PrintRow("max concurrent vs budget",
           "<= " + std::to_string(rebalance.max_concurrent_total),
           std::to_string(stats.max_inflight_observed) +
               (stats.max_inflight_observed <=
                        static_cast<size_t>(rebalance.max_concurrent_total)
                    ? " (respected)"
                    : " (EXCEEDED)"));
  PrintRow("sla violations before hotspot", "~0",
           FormatRate(before, inject_time - flags.warmup_seconds));
  PrintRow("sla violations during episode", "elevated",
           FormatRate(during, during_end - inject_time));
  PrintRow("sla violations after convergence", "back to ~0",
           FormatRate(after, end_time - during_end));

  const bool ok = detect_time >= 0.0 && converged_at >= 0.0 &&
                  stats.migrations_failed == 0 &&
                  stats.max_inflight_observed <=
                      static_cast<size_t>(rebalance.max_concurrent_total);
  PrintRow("episode resolved autonomically", "yes", ok ? "yes" : "NO");

  JsonWriter json;
  json.Field("figure", "fig14")
      .Field("servers", params.servers)
      .Field("tenants", params.tenants)
      .Field("sla_ms", params.sla_ms)
      .Field("time_to_detect_seconds",
             detect_time >= 0.0 ? detect_time - inject_time : -1.0)
      .Field("time_to_converge_seconds",
             converged_at >= 0.0 ? converged_at - inject_time : -1.0)
      .Field("episode_violation_server_seconds", episode_violation_ss)
      .Field("violations_before", before)
      .Field("violations_during", during)
      .Field("violations_after", after)
      .Field("migrations_ok", stats.migrations_ok)
      .Field("migrations_failed", stats.migrations_failed)
      .Field("deferred_budget", stats.deferred_budget)
      .Field("deferred_guard_band", stats.deferred_guard_band)
      .Field("max_inflight", stats.max_inflight_observed)
      .Field("pass", ok);
  json.Save(json_path);
  return ok;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;

  FleetParams params;
  FleetFlags fleet_flags("BENCH_fig14.json", params.servers, params.tenants);
  ParseFleetFlags(argc, argv, &fleet_flags);
  params.servers = fleet_flags.servers;
  params.tenants = fleet_flags.tenants;
  if (fleet_flags.smoke) {
    params.servers = 4;
    params.tenants = 16;
    params.records_per_tenant = 8 * 1024;
    params.settle_seconds = 20.0;
    params.deadline_seconds = 300.0;
  }
  ExperimentOptions flags = fleet_flags.options;
  flags.sla_threshold_ms = params.sla_ms;

  slacker::ClusterOptions cluster_options = PaperClusterOptions();
  cluster_options.num_servers = params.servers;
  Fleet fleet(flags, cluster_options, /*metrics=*/true);
  fleet.AddHarmonicTenants(params.tenants, params.records_per_tenant,
                           params.util_target);
  const bool ok = RunEpisode(&fleet, flags, params, fleet_flags.json_path);
  const bool audited = fleet.Finish();
  return ok && audited ? 0 : 1;
}
