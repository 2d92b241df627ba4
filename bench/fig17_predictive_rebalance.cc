// Figure 17 (extension): predictive trough-scheduled migration planning
// vs purely reactive rebalancing (DESIGN.md §13). A fleet of tenants
// follows a jittered diurnal cycle. At a load *peak* one server is put
// into drain mode (a maintenance evacuation — non-urgent work). The
// reactive loop evacuates immediately, spending the whole transfer
// window fighting peak traffic with a throttled stream at the PID
// setpoint; the predictive loop's forecast subsystem has discovered the
// cycle from live samples, prices candidate start times with the
// migration cost model, and defers the evacuation into the coming
// trough — under a hard fallback deadline. Afterwards a hotspot is
// injected: relief is urgent and must bypass the scheduler, so its
// reaction latency must not regress.
//
// Reported: SLA-violation server-seconds over the drain window for both
// modes (the headline — predictive must be <= 60% of reactive), drain
// completion, trough-scheduler counters, and hotspot relief latency.
// Machine-readable results go to BENCH_fig17.json (--json <path>).
//
//   --smoke    4 servers x 24 tenants, 120 s cycle (CI-sized)
// plus the shared bench flags (--seed, --trace, --csv, ...). Only the
// predictive run traces, so forecast/trough events land in the trace.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/fleet.h"
#include "src/forecast/cost_model.h"
#include "src/forecast/trough_scheduler.h"
#include "src/slacker/fleet_load_sampler.h"
#include "src/slacker/upgrade.h"

namespace slacker::bench {
namespace {

struct Fig17Params {
  int servers = 8;
  int tenants = 48;
  uint64_t records_per_tenant = 32 * 1024;
  /// Mean per-server disk utilization; the diurnal swing multiplies the
  /// arrival rate by 1 +/- amplitude around it. Calibrated so the bare
  /// peak (util x 1.7 ~= 0.54) stays under the 500 ms SLA crossing but
  /// peak plus migration interference breaches it, while the trough
  /// (util x 0.3 ~= 0.10) absorbs a full-rate stream without noticing.
  double util_target = 0.32;
  double amplitude = 0.7;
  /// Fleet-wide diurnal period (simulated seconds).
  SimTime period = 240.0;
  /// Per-tenant deviation from the fleet cycle (satellite knobs).
  workload::DiurnalJitter jitter;
  /// Forecast warm-up: history the cycle detector needs, plus margin.
  SimTime warm_seconds = 700.0;
  /// Violation accounting window opened at the drain injection; long
  /// enough to cover the trough wait + the evacuation in both modes.
  SimTime drain_window = 420.0;
  /// Latency above which a server counts as violating (ms). Below the
  /// PID setpoint: a migration running at the setpoint *is* an SLA
  /// violation the planner should have avoided.
  double sla_ms = 500.0;
  double pid_setpoint_ms = 800.0;
  /// Migration stream floor/ceiling (MB/s).
  double stream_floor = 2.0;
  double stream_ceiling = 10.0;
  SimTime hotspot_deadline = 300.0;
};

struct RunResult {
  double drain_violation_ss = 0.0;    // Server-seconds over the window.
  SimTime drain_seconds = -1.0;       // Injection -> victim empty.
  bool drain_completed = false;
  SimTime relief_latency = -1.0;      // Hotspot -> first relief admitted.
  bool forecast_ready = false;
  RebalancerStats stats;
  forecast::TroughScheduler::Stats scheduler;
  bool audited = false;
};

/// One scenario pass. `predictive` wires the forecast subsystem into
/// the rebalancer; otherwise the loop is the existing reactive one,
/// untouched. Its objects die before the caller's Fleet::Finish().
RunResult Drive(Fleet* fleet, const Fig17Params& params, bool predictive) {
  Cluster* cluster = fleet->cluster();
  sim::Simulator* sim = fleet->sim();

  RebalancerOptions rebalance = FleetRebalancerOptions(params.pid_setpoint_ms);
  rebalance.migration.pid.output_min = params.stream_floor;
  rebalance.migration.pid.output_max = params.stream_ceiling;
  // This bench exercises drain scheduling and relief; calm-fleet
  // consolidation would churn placements through every trough.
  rebalance.consolidate = false;

  std::unique_ptr<FleetLoadSampler> sampler;
  std::unique_ptr<forecast::MigrationCostModel> cost_model;
  std::unique_ptr<forecast::TroughScheduler> scheduler;
  if (predictive) {
    ForecastOptions fopts;
    // 10 s buckets: wide enough that Poisson arrival noise per bucket
    // stays well under the diurnal swing, narrow enough to place the
    // trough within a fraction of its width.
    fopts.bucket_seconds = 10.0;
    fopts.seconds_per_op = FleetBusySecondsPerTxn() / 10.0;
    fopts.cycle.min_period_buckets = 8;
    fopts.cycle.max_period_buckets =
        static_cast<int>(params.period / fopts.bucket_seconds) +
        static_cast<int>(params.period / fopts.bucket_seconds) / 3;
    fopts.history_buckets =
        static_cast<size_t>(2 * fopts.cycle.max_period_buckets);
    fopts.redetect_buckets = 8;
    sampler = std::make_unique<FleetLoadSampler>(cluster, fopts);
    if (!sampler->Start().ok()) {
      std::fprintf(stderr, "sampler failed to start\n");
      return RunResult{};
    }

    forecast::CostModelOptions copts;
    // The knee sits between this fleet's trough (~0.10) and peak
    // (~0.54) load, so peak-time work prices nonzero and trough-time
    // work prices zero. The stream's modeled appetite matches the PID
    // range. Price the point forecast: the +z*mae*sqrt(h) band grows
    // with the horizon, which would bias every comparison toward "now"
    // regardless of the predicted cycle.
    copts.violation_knee = 0.35;
    copts.use_upper_band = false;
    copts.migration_load_at_ceiling = params.stream_ceiling / 50.0;
    copts.throttle_floor_mbps = params.stream_floor;
    copts.throttle_ceiling_mbps = params.stream_ceiling;
    cost_model =
        std::make_unique<forecast::MigrationCostModel>(sampler.get(), copts);

    forecast::TroughSchedulerOptions sopts;
    sopts.horizon_seconds = params.period * 1.25;
    sopts.candidate_stride = 10.0;
    sopts.fallback_deadline = params.period * 1.25;
    scheduler = std::make_unique<forecast::TroughScheduler>(
        cost_model.get(), sopts,
        [cluster]() { return cluster->tracer(); });
    rebalance.trough_scheduler = scheduler.get();
  }

  Rebalancer rebalancer(cluster, rebalance);
  if (!rebalancer.Start().ok()) {
    std::fprintf(stderr, "rebalancer failed to start\n");
    return RunResult{};
  }

  // Let the workload cycle and (in predictive mode) the forecast warm.
  sim->RunUntil(params.warm_seconds);

  // Drain injection lands on the next fleet-wide load *peak* (the base
  // sinusoid peaks at period/4 mod period).
  const double cycles =
      std::floor((sim->Now() - params.period / 4.0) / params.period);
  const SimTime drain_at =
      (cycles + 1.0) * params.period + params.period / 4.0;
  sim->RunUntil(drain_at);

  RunResult result;
  const uint64_t victim = 1;
  if (predictive) {
    result.forecast_ready = sampler->Ready(victim);
    // Forecast snapshot at the decision point: what the planner sees.
    const SimTime now = sim->Now();
    const SimTime trough = sampler->NextTroughStart(victim, now);
    const forecast::MigrationCostEstimate at_now =
        cost_model->Price(victim, 0, 32ull * kMiB, now);
    const forecast::MigrationCostEstimate at_trough =
        cost_model->Price(victim, 0, 32ull * kMiB, trough);
    std::printf(
        "  [forecast] victim load now=%.3f upper(+5s)=%.3f | trough at "
        "+%.0fs load=%.3f | 32 MiB cost now=%.2f (%.0fs) trough=%.2f "
        "(%.0fs)\n",
        sampler->CurrentLoad(victim),
        sampler->PredictLoadUpper(victim, now + 5.0), trough - now,
        sampler->PredictLoad(victim, trough), at_now.violation_seconds,
        at_now.duration_seconds, at_trough.violation_seconds,
        at_trough.duration_seconds);
  }

  (void)cluster->SetDraining(victim, true);
  rebalancer.TickNow();

  // Violation accounting: 1 Hz server-seconds over a fixed window that
  // covers the reactive evacuation AND the predictive trough wait, so
  // both modes are integrated over identical spans.
  const SimTime window_end = drain_at + params.drain_window;
  while (sim->Now() < window_end) {
    sim->RunUntil(sim->Now() + 1.0);
    result.drain_violation_ss += static_cast<double>(
        CountViolatingServers(cluster, params.sla_ms, sim->Now()));
    if (!result.drain_completed &&
        cluster->directory()->TenantsOn(victim).empty() &&
        rebalancer.inflight() == 0) {
      result.drain_completed = true;
      result.drain_seconds = sim->Now() - drain_at;
    }
  }

  // Hotspot: relief is urgent and must not be slowed by the scheduler.
  const uint64_t hot_server = 2;
  const SimTime hotspot_at = sim->Now();
  const uint64_t relief_before = rebalancer.stats().relief_admitted;
  fleet->InjectHotspot(hot_server);
  const SimTime hotspot_deadline = hotspot_at + params.hotspot_deadline;
  while (sim->Now() < hotspot_deadline) {
    sim->RunUntil(sim->Now() + 1.0);
    if (rebalancer.stats().relief_admitted > relief_before) {
      result.relief_latency = sim->Now() - hotspot_at;
      break;
    }
  }

  rebalancer.Stop();
  if (sampler != nullptr) sampler->Stop();
  result.stats = rebalancer.stats();
  if (scheduler != nullptr) result.scheduler = scheduler->stats();
  return result;
}

/// N servers, tenants round-robin, every tenant driven by its own
/// jittered diurnal pattern around the shared fleet cycle.
RunResult RunScenario(const ExperimentOptions& flags,
                      const Fig17Params& params, bool predictive) {
  ClusterOptions cluster_options = PaperClusterOptions();
  cluster_options.num_servers = params.servers;
  Fleet fleet(flags, cluster_options, /*metrics=*/true);
  const int per_server = params.tenants / params.servers;
  const double server_txn_rate =
      params.util_target / FleetBusySecondsPerTxn();
  const double tenant_rate =
      server_txn_rate / static_cast<double>(per_server);

  for (int i = 0; i < params.tenants; ++i) {
    const uint64_t tenant_id = i + 1;
    engine::TenantConfig tenant;
    tenant.tenant_id = tenant_id;
    tenant.layout.record_count = params.records_per_tenant;
    tenant.buffer_pool_bytes = params.records_per_tenant * kKiB / 8;
    tenant.cpu_per_op = 0.0003;
    tenant.commit_latency = 0.0005;
    fleet.AddTenant(i % params.servers, tenant);
    workload::YcsbConfig ycsb;
    ycsb.record_count = params.records_per_tenant;
    ycsb.mean_interarrival = 1.0 / tenant_rate;
    workload::YcsbWorkload* workload =
        fleet.AddPool(tenant_id, ycsb, /*seed_salt=*/tenant_id * 1000);

    // The tenant's personal diurnal curve: deterministic jitter from
    // (seed, tenant) so both the reactive and predictive runs see the
    // exact same load.
    fleet.AddDriver(workload,
                    workload::DiurnalPattern::ForTenant(
                        params.period, params.amplitude, /*phase=*/0.0,
                        params.jitter, flags.seed, tenant_id),
                    /*update_period=*/5.0);
  }
  RunResult result = Drive(&fleet, params, predictive);
  result.audited = fleet.Finish();
  return result;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;

  Fig17Params params;
  FleetFlags fleet_flags("BENCH_fig17.json");
  ParseFleetFlags(argc, argv, &fleet_flags);
  params.jitter.period_fraction = 0.02;
  params.jitter.phase_fraction = 0.10;
  params.jitter.amplitude_fraction = 0.20;
  if (fleet_flags.smoke) {
    params.servers = 4;
    params.tenants = 24;
    params.period = 120.0;
    params.warm_seconds = 360.0;
    params.drain_window = 220.0;
    params.hotspot_deadline = 240.0;
  }
  ExperimentOptions flags = fleet_flags.options;
  flags.sla_threshold_ms = params.sla_ms;

  // The reactive baseline runs untraced: only the predictive run's
  // trace (forecast + trough events) is exported.
  ExperimentOptions reactive_flags = flags;
  reactive_flags.trace_path.clear();
  reactive_flags.csv_path.clear();

  std::printf("running reactive baseline...\n");
  const RunResult reactive = RunScenario(reactive_flags, params, false);
  std::printf("running predictive...\n");
  const RunResult predictive = RunScenario(flags, params, true);

  const double ratio =
      reactive.drain_violation_ss > 0.0
          ? predictive.drain_violation_ss / reactive.drain_violation_ss
          : 1.0;

  PrintHeader("Figure 17",
              "predictive trough scheduling vs reactive rebalance");
  PrintRow("fleet", "-",
           std::to_string(params.servers) + " servers, " +
               std::to_string(params.tenants) + " tenants, " +
               FormatSeconds(params.period) + " cycle");
  PrintRow("forecast ready at drain time", "yes",
           predictive.forecast_ready ? "yes" : "NO");
  PrintRow("drain viol server-s (reactive)", "large",
           std::to_string(reactive.drain_violation_ss));
  PrintRow("drain viol server-s (predictive)", "<= 60% of reactive",
           std::to_string(predictive.drain_violation_ss));
  char ratio_buf[32];
  std::snprintf(ratio_buf, sizeof(ratio_buf), "%.0f%%", ratio * 100.0);
  PrintRow("violation ratio", "<= 60%", ratio_buf);
  PrintRow("drain completed (reactive / predictive)", "yes / yes",
           std::string(reactive.drain_completed ? "yes" : "NO") + " / " +
               (predictive.drain_completed ? "yes" : "NO"));
  PrintRow("evacuation deferred into trough", ">= 1 plan",
           std::to_string(predictive.stats.deferred_trough) +
               " holds, released " +
               std::to_string(predictive.stats.trough_released) +
               " trough / " +
               std::to_string(predictive.stats.deadline_forced) +
               " deadline");
  PrintRow("relief latency (reactive)", "<= 2 periods",
           reactive.relief_latency >= 0.0
               ? FormatSeconds(reactive.relief_latency)
               : "NOT ADMITTED");
  PrintRow("relief latency (predictive)", "not regressed",
           predictive.relief_latency >= 0.0
               ? FormatSeconds(predictive.relief_latency)
               : "NOT ADMITTED");

  const bool drains_ok =
      reactive.drain_completed && predictive.drain_completed &&
      reactive.stats.migrations_failed == 0 &&
      predictive.stats.migrations_failed == 0;
  const bool forecast_ok = predictive.forecast_ready &&
                           predictive.stats.deferred_trough >= 1;
  const bool ratio_ok =
      reactive.drain_violation_ss >= 5.0 && ratio <= 0.60;
  // Allow 1.5 control periods of slack on relief reaction; the urgent
  // path bypasses the scheduler, so anything beyond that is a real
  // regression.
  const bool relief_ok =
      reactive.relief_latency >= 0.0 && predictive.relief_latency >= 0.0 &&
      predictive.relief_latency <= reactive.relief_latency + 15.0;
  const bool ok = drains_ok && forecast_ok && ratio_ok && relief_ok;
  PrintRow("predictive beats reactive", "yes", ok ? "yes" : "NO");

  JsonWriter json;
  json.Field("figure", "fig17")
      .Field("servers", params.servers)
      .Field("tenants", params.tenants)
      .Field("period_seconds", params.period)
      .Field("sla_ms", params.sla_ms);
  for (const auto& [name, r] : {std::pair{"reactive", &reactive},
                                std::pair{"predictive", &predictive}}) {
    json.BeginObject(name)
        .Field("sla_violation_server_seconds", r->drain_violation_ss)
        .Field("drain_completed", r->drain_completed)
        .Field("time_to_converge_seconds", r->drain_seconds)
        .Field("relief_latency_seconds", r->relief_latency)
        .Field("migrations_admitted", r->stats.plans_admitted)
        .Field("migrations_failed", r->stats.migrations_failed)
        .Field("deferred_trough", r->stats.deferred_trough)
        .Field("trough_released", r->stats.trough_released)
        .Field("deadline_forced", r->stats.deadline_forced)
        .EndObject();
  }
  json.Field("violation_ratio", ratio).Field("pass", ok);
  json.Save(fleet_flags.json_path);
  return ok && reactive.audited && predictive.audited ? 0 : 1;
}
