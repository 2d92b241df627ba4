// Figure 18 (extension): fluid range-granular migration. At the fig14
// fleet scale, every tenant of one server is relocated twice — once as
// a classic whole-tenant live migration, once fluidly as a sequence of
// B+-tree-aligned per-range jobs (DESIGN.md §16) — and the handover
// freeze windows are compared as CDFs. The fluid path's unit of
// unavailability is one range instead of the whole tenant, so its
// worst-case handover latency must shrink roughly with the range count;
// the acceptance gate requires fluid p99 <= 0.5x whole-tenant p99.
//
//   --smoke       4 servers x 16 tenants, 8 Ki rows (CI-sized)
//   --servers N   fleet width        --fleet-tenants T   tenant count
//   --ranges R    fluid granularity (default 8)
//   --json PATH   results JSON (default BENCH_fig18.json)
// plus the shared bench flags (--seed, --trace, --csv, ...).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/fleet.h"
#include "src/slacker/fluid_migration.h"

namespace slacker::bench {
namespace {

struct Fig18Params {
  int servers = 16;
  int tenants = 128;
  uint64_t records_per_tenant = 8 * 1024;  // 1 KiB rows: 8 MiB tenants.
  size_t ranges = 8;
  /// Per-tenant mean inter-arrival (single-op update transactions):
  /// ~1 MB/s of row-image binlog per tenant. Combined with the slow
  /// target-side delta apply below, a whole-tenant delta round takes
  /// about as long as the writes it absorbs — the backlog never
  /// shrinks, the paper's "write turnover never converges" regime —
  /// while each of the 8 ranges sees 1/8 the write intensity and its
  /// backlog lands under the handover threshold after the copy. The
  /// forced freeze then ships a fold proportional to the migrated
  /// unit's write intensity, which is the effect under test.
  double interarrival = 0.001;
  SimTime warmup_seconds = 5.0;
};

/// One preset for both ends: the cluster's incoming_migration (the
/// target side) and every job's options (the source side).
MigrationOptions Migration() {
  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 2.0;
  // The target replays deltas through full index maintenance at
  // ~2 MiB/s — about the tenants' write-byte rate, so a whole-tenant
  // round's apply window absorbs as many new writes as the round
  // shipped and the backlog never converges. Only the target reads the
  // apply cost, from incoming_migration; the jobs' copy is ignored.
  // Cap the futile rounds: the forced freeze — the paper's give-up
  // path — then ships a multi-MiB fold. Both arms run identical
  // options; each range's 1/8-intensity backlog sits under the
  // handover threshold by the time its copy finishes, so ranges never
  // hit the cap.
  options.delta_apply_seconds_per_mib = 0.5;
  options.max_delta_rounds = 3;
  options.prepare.base_seconds = 0.5;
  return options;
}

/// One arm's fresh fleet (same seed for both arms) of fully cached
/// tenants under single-op updates, warmed up. Each arm writes its own
/// trace and CSV, suffixed .whole or .fluid.
std::unique_ptr<Fleet> MakeArm(ExperimentOptions flags,
                               const Fig18Params& params, bool fluid) {
  const std::string arm = fluid ? ".fluid" : ".whole";
  if (!flags.trace_path.empty()) flags.trace_path += arm + ".json";
  if (!flags.csv_path.empty()) flags.csv_path += arm + ".csv";
  ClusterOptions cluster_options = PaperClusterOptions();
  cluster_options.num_servers = params.servers;
  // The slow target-side delta apply lives in the *incoming* options
  // (the target session's side of the protocol), not the per-job ones.
  cluster_options.incoming_migration = Migration();
  auto fleet =
      std::make_unique<Fleet>(flags, cluster_options, /*metrics=*/false);
  for (int i = 0; i < params.tenants; ++i) {
    const uint64_t tenant_id = i + 1;
    engine::TenantConfig tenant;
    tenant.tenant_id = tenant_id;
    tenant.layout.record_count = params.records_per_tenant;
    // Fully cached: the freeze windows compared here must reflect the
    // migration machinery, not read-miss queueing on the shared disk.
    tenant.buffer_pool_bytes = params.records_per_tenant * kKiB;
    tenant.cpu_per_op = 0.00005;
    tenant.commit_latency = 0.0005;
    fleet->AddTenant(i % params.servers, tenant);

    workload::YcsbConfig ycsb;
    ycsb.record_count = params.records_per_tenant;
    // Single-op transactions route exactly by key, so mid-sequence a
    // sharded tenant serves from both halves without cross-range txns.
    ycsb.ops_per_txn = 1;
    ycsb.mix.read = 0.0;
    ycsb.mix.update = 1.0;
    ycsb.mean_interarrival = params.interarrival;
    fleet->AddPool(tenant_id, ycsb, /*seed_salt=*/tenant_id * 1000);
    fleet->pools().back()->set_route_by_key(true);
  }
  fleet->sim()->RunUntil(params.warmup_seconds);
  return fleet;
}

/// One experiment arm: relocates every server-0 tenant to server 1 one
/// at a time (the admission-controlled rebalancer also serializes per
/// source). Returns the handover freeze windows (ms), one per executed
/// job — per tenant in whole-tenant mode, per range in fluid mode —
/// and clears `*ok` if any migration failed.
std::vector<double> RunArm(Fleet* fleet, const Fig18Params& params,
                           bool fluid, bool* ok) {
  Cluster* cluster = fleet->cluster();
  sim::Simulator* sim = fleet->sim();
  std::vector<double> downtimes;
  for (int i = 0; i < params.tenants; i += params.servers) {
    const uint64_t tenant_id = i + 1;
    bool done = false;
    Status status;
    std::vector<MigrationReport> jobs;
    std::unique_ptr<FluidMigrator> migrator;
    Status started;
    if (fluid) {
      FluidMigrationOptions options;
      options.target_ranges = params.ranges;
      options.migration = Migration();
      migrator = std::make_unique<FluidMigrator>(
          cluster, tenant_id, 1, options, [&](const FluidMigrationReport& r) {
            status = r.status;
            jobs = r.ranges;
            done = true;
          });
      started = migrator->Start();
    } else {
      started = cluster->StartMigration(
          tenant_id, 1, Migration(), [&](const MigrationReport& r) {
            status = r.status;
            jobs = {r};
            done = true;
          });
    }
    if (!started.ok()) {
      *ok = false;
      continue;
    }
    const SimTime deadline = sim->Now() + 600.0;
    while (!done && sim->Now() < deadline) sim->RunUntil(sim->Now() + 0.5);
    // A stalled job fails the arm rather than adding a zero-downtime
    // sample.
    *ok = done && status.ok() && *ok;
    for (const MigrationReport& r : jobs) {
      if (r.status.ok()) downtimes.push_back(r.downtime_ms);
    }
  }
  return downtimes;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size()))) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;

  Fig18Params params;
  FleetFlags fleet_flags("BENCH_fig18.json", params.servers, params.tenants,
                         params.ranges);
  ParseFleetFlags(argc, argv, &fleet_flags);
  params.servers = fleet_flags.servers;
  params.tenants = fleet_flags.tenants;
  params.ranges = fleet_flags.ranges;
  if (fleet_flags.smoke) {
    params.servers = 4;
    params.tenants = 16;
  }

  // Arm 0 moves whole tenants, arm 1 moves them range by range.
  std::vector<double> downtimes[2];
  bool arms_ok = true;
  bool audited = true;
  uint64_t failed_txns = 0;
  for (const bool fluid : {false, true}) {
    const std::unique_ptr<Fleet> fleet =
        MakeArm(fleet_flags.options, params, fluid);
    downtimes[fluid] = RunArm(fleet.get(), params, fluid, &arms_ok);
    for (const auto& pool : fleet->pools()) {
      failed_txns += pool->stats().failed;
    }
    audited = fleet->Finish() && audited;
  }
  std::vector<double>& whole = downtimes[0];
  std::vector<double>& fluid = downtimes[1];
  std::sort(whole.begin(), whole.end());
  std::sort(fluid.begin(), fluid.end());

  const double whole_p99 = Percentile(whole, 0.99);
  const double fluid_p99 = Percentile(fluid, 0.99);
  const double ratio =
      whole_p99 > 0.0 ? fluid_p99 / whole_p99 : 1.0;
  // The gate: carving the tenant into R ranges must shrink the worst
  // handover freeze window by at least 2x (it should approach 1/R).
  const bool ok = arms_ok && !whole.empty() && !fluid.empty() &&
                  failed_txns == 0 && ratio <= 0.5;

  PrintHeader("Figure 18",
              "fluid migration: per-range vs whole-tenant handover CDFs");
  PrintRow("fleet", "-",
           std::to_string(params.servers) + " servers, " +
               std::to_string(params.tenants) + " tenants");
  PrintRow("fluid granularity", "-",
           std::to_string(params.ranges) + " ranges/tenant");
  PrintRow("handover samples (whole / fluid)", "-",
           std::to_string(whole.size()) + " / " + std::to_string(fluid.size()));
  PrintRow("whole-tenant handover p50 / p99", "-",
           FormatMs(Percentile(whole, 0.5)) + " / " + FormatMs(whole_p99));
  PrintRow("fluid per-range handover p50 / p99", "-",
           FormatMs(Percentile(fluid, 0.5)) + " / " + FormatMs(fluid_p99));
  PrintRow("fluid p99 / whole p99", "<= 0.5",
           std::to_string(ratio).substr(0, 5) +
               (ratio <= 0.5 ? " (pass)" : " (FAIL)"));
  PrintRow("client transactions failed", "0", std::to_string(failed_txns));
  PrintRow("all migrations completed", "yes", arms_ok ? "yes" : "NO");

  JsonWriter json;
  json.Field("figure", "fig18")
      .Field("servers", params.servers)
      .Field("tenants", params.tenants)
      .Field("ranges", params.ranges)
      .Field("whole_tenant_downtime_ms_cdf", whole)
      .Field("fluid_range_downtime_ms_cdf", fluid)
      .Field("whole_p50_ms", Percentile(whole, 0.5))
      .Field("whole_p99_ms", whole_p99)
      .Field("fluid_p50_ms", Percentile(fluid, 0.5))
      .Field("fluid_p99_ms", fluid_p99)
      .Field("fluid_over_whole_p99", ratio)
      .Field("pass", ok);
  json.Save(fleet_flags.json_path);
  return ok && audited ? 0 : 1;
}
