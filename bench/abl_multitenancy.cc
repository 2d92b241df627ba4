// Ablation: process-level vs shared-process multitenancy (§2.1). The
// paper chooses one MySQL daemon per tenant specifically to "prevent
// situations such as buffer page evictions due to competing workloads —
// we avoid any situations in which buffer allocations overlap". This
// bench quantifies that: a well-behaved victim tenant shares a server
// with a scan-heavy noisy neighbour; under the shared pool the
// neighbour flushes the victim's cache and its latency rises, while
// private pools isolate it.

#include <cstdio>

#include "bench/fleet.h"

namespace slacker::bench {
namespace {

struct IsolationResult {
  double victim_mean = 0.0;
  double victim_p95 = 0.0;
  double victim_hit_rate = 0.0;
  bool audited = false;
};

IsolationResult Run(MultitenancyModel model) {
  ClusterOptions cluster_options = PaperClusterOptions();
  cluster_options.multitenancy = model;
  // Same total memory either way: 2 x 64 MiB private, or 128 MiB shared.
  cluster_options.shared_buffer_bytes = 128 * kMiB;
  // The scenario pins its own seeds: each pool's salt is its seed.
  ExperimentOptions pinned;
  pinned.seed = 0;
  Fleet fleet(pinned, cluster_options, /*metrics=*/false);

  // Victim: 64 MiB of hot data — fits its share of memory entirely.
  engine::TenantConfig victim_cfg;
  victim_cfg.tenant_id = 1;
  victim_cfg.layout.record_count = 64 * 1024;
  victim_cfg.buffer_pool_bytes = 64 * kMiB;
  fleet.AddTenant(0, victim_cfg);

  // Neighbour: 512 MiB, uniformly scanned — far bigger than any cache.
  engine::TenantConfig neighbor_cfg;
  neighbor_cfg.tenant_id = 2;
  neighbor_cfg.layout.record_count = 512 * 1024;
  neighbor_cfg.buffer_pool_bytes = 64 * kMiB;
  fleet.AddTenant(0, neighbor_cfg);

  workload::YcsbConfig victim_ycsb;
  victim_ycsb.record_count = victim_cfg.layout.record_count;
  victim_ycsb.mean_interarrival = 0.25;
  fleet.AddPool(1, victim_ycsb, /*seed_salt=*/11);

  workload::YcsbConfig neighbor_ycsb;
  neighbor_ycsb.record_count = neighbor_cfg.layout.record_count;
  neighbor_ycsb.mean_interarrival = 0.5;
  fleet.AddPool(2, neighbor_ycsb, /*seed_salt=*/22);

  storage::BufferPool* victim_pages =
      fleet.cluster()->TenantOn(0, 1)->buffer_pool();
  fleet.sim()->RunUntil(60.0);  // Let the neighbour pollute (or not).
  victim_pages->ResetStats();
  const SimTime measure_start = fleet.sim()->Now();
  fleet.sim()->RunUntil(measure_start + 180.0);

  IsolationResult result;
  PercentileTracker victim_lat;
  for (const auto& p : fleet.pools()[0]->latency_series().points()) {
    if (p.t >= measure_start) victim_lat.Add(p.value);
  }
  result.victim_mean = victim_lat.Mean();
  result.victim_p95 = victim_lat.Percentile(95);
  result.victim_hit_rate = victim_pages->HitRate();
  // Note: under the shared model this is the shared pool's overall hit
  // rate; the victim-only signal is its latency.
  result.audited = fleet.Finish();
  return result;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using namespace slacker;
  // Flags are checked but unused: the scenario pins its own seeds and
  // options, so it has no trace or metrics to write.
  FleetFlags flags;
  flags.takes_trace = false;
  ParseFleetFlags(argc, argv, &flags);

  const IsolationResult isolated = Run(MultitenancyModel::kProcessLevel);
  const IsolationResult shared = Run(MultitenancyModel::kSharedProcess);

  PrintHeader("Ablation (§2.1)",
              "process-level vs shared-process multitenancy, same total "
              "memory, scan-heavy neighbour");
  PrintRow("victim latency, private pools", "isolated (stays low)",
           FormatMs(isolated.victim_mean) + " mean, p95 " +
               FormatMs(isolated.victim_p95));
  PrintRow("victim latency, shared pool", "inflated by neighbour evictions",
           FormatMs(shared.victim_mean) + " mean, p95 " +
               FormatMs(shared.victim_p95));
  PrintRow("buffer hit rate seen by victim's I/O",
           "private ~1.0 vs shared much lower",
           "private " + std::to_string(isolated.victim_hit_rate).substr(0, 4) +
               " vs shared " +
               std::to_string(shared.victim_hit_rate).substr(0, 4));
  PrintRow("paper's design choice validated", "process-level isolates",
           shared.victim_mean > isolated.victim_mean * 1.3 ? "yes" : "NO");
  return isolated.audited && shared.audited ? 0 : 1;
}
