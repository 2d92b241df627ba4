#ifndef SLACKER_BENCH_FLEET_H_
#define SLACKER_BENCH_FLEET_H_

#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/common/stats.h"
#include "src/common/time_series.h"
#include "src/obs/trace.h"
#include "src/slacker/rebalancer.h"
#include "src/workload/client_pool.h"
#include "src/workload/patterns.h"
#include "src/workload/ycsb.h"

namespace slacker::bench {

/// The expected disk-busy seconds one transaction costs: ops/txn x
/// steady-state miss rate (buffer holds 1/8 of the pages) x one page
/// read on the calibrated paper disk. Used only to size arrival rates.
double FleetBusySecondsPerTxn();

/// The rebalancer preset of the fleet benches: 10 s period, 256 KiB
/// chunks, a PID at `setpoint_ms` on target latency with a 2..30 MB/s
/// stream, 120 s supervisor attempts, and a budget of 2 per source,
/// 1 per target and 4 in total.
RebalancerOptions FleetRebalancerOptions(double setpoint_ms);

/// A JSON object written one field at a time, two-space indented, one
/// field per line. Doubles print as %.17g, so values round-trip.
class JsonWriter {
 public:
  JsonWriter();

  JsonWriter& Field(const char* key, const char* value);
  JsonWriter& Field(const char* key, bool value);
  JsonWriter& Field(const char* key, double value);
  template <std::integral T>
  JsonWriter& Field(const char* key, T value) {
    return Raw(key, std::to_string(value));
  }
  /// An array of doubles on one line.
  JsonWriter& Field(const char* key, const std::vector<double>& values);

  /// Opens a nested object; fields go into it until EndObject().
  JsonWriter& BeginObject(const char* key);
  JsonWriter& EndObject();

  /// The document so far, closed.
  std::string str() const;
  /// Writes str() to `path` and prints "(wrote results <path>)", or
  /// prints the error to stderr.
  void Save(const std::string& path) const;

 private:
  /// Appends `"key": text`.
  JsonWriter& Raw(const char* key, const std::string& text);

  std::string out_;
  /// One entry per open object: true until its first field.
  std::vector<bool> first_;
};

/// What Fleet::Audit found.
struct FleetAudit {
  bool drained = false;
  size_t tenants = 0;
  size_t acked_keys = 0;
  uint64_t mismatches = 0;
  uint64_t coverage_errors = 0;
  uint64_t jobs_in_flight = 0;

  bool ok() const {
    return drained && mismatches + coverage_errors + jobs_in_flight == 0;
  }
};

/// A bench's simulator, cluster, tenants and load, with the
/// observability and end-of-run audit every bench shares.
///
/// Event ties break FIFO, so construction order is output: the tracer,
/// the cluster, the tracer's installation, the SLA threshold
/// (`flags.sla_threshold_ms`) and the 1 Hz sampler all come before
/// the bench's own AddTenant/AddPool calls.
class Fleet {
 public:
  /// `cluster_options` is PaperClusterOptions() with the bench's
  /// changes. A tracer exists only when `flags` asks for a trace or
  /// CSV; with `metrics`, a 1 Hz timer then runs PublishMetrics into it.
  Fleet(const ExperimentOptions& flags, const ClusterOptions& cluster_options,
        bool metrics);

  /// The paper testbed (§3, §5): PaperClusterOptions() with metrics,
  /// and `flags.tenants` paper tenants (ids 1..n) on server 0, one pool
  /// each salted tenant_id * 1000, run through the warm-up. With
  /// several tenants the server's buffer memory is split between them
  /// (Fig. 13b) and the arrival rate is divided and miss-corrected so
  /// the server's disk demand matches the single-tenant runs.
  explicit Fleet(const ExperimentOptions& flags);
  // The tracer, cluster and pools hold the simulator's address.
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Places a tenant on `server_id` and warms its buffer pool. Aborts
  /// if the cluster refuses it.
  void AddTenant(uint64_t server_id, const engine::TenantConfig& tenant);

  /// Starts a client pool for `tenant_id` seeded with flags.seed +
  /// `seed_salt`, and returns its workload. The tenant's first pool
  /// is the one InjectHotspot copies.
  workload::YcsbWorkload* AddPool(uint64_t tenant_id,
                                  const workload::YcsbConfig& ycsb,
                                  uint64_t seed_salt);

  /// The fig14 fleet shape: `tenants` tenants of `records` 1 KiB rows
  /// (buffer pools hold 1/8 of them) placed round-robin on the servers,
  /// one pool each, salted tenant_id * 1000. Each server's load is sized
  /// to `util_target` disk utilization and skewed harmonically — its
  /// k-th tenant gets weight 1/(1+k) — so "which tenant" decisions
  /// matter.
  void AddHarmonicTenants(int tenants, uint64_t records, double util_target);

  /// Drives `workload`'s arrival rate along `pattern` (copied).
  void AddDriver(workload::YcsbWorkload* workload,
                 const workload::DiurnalPattern& pattern,
                 SimTime update_period);

  /// Triples the load of every tenant placed on `server_id`: two more
  /// pools per tenant, copies of its first pool salted +7 and +14. The
  /// traffic follows the tenant through later migrations.
  void InjectHotspot(uint64_t server_id);

  /// Completed transactions in (t0, t1] slower than the SLA threshold.
  uint64_t ViolationsBetween(SimTime t0, SimTime t1) const;

  /// The paper's migration preset: chunked hot backup, 1 s controller
  /// tick, paper PID gains, and the flags' codec.
  MigrationOptions BaseMigration() const;

  /// Runs the load with no migration for `seconds`; returns the
  /// latency samples from that span.
  PercentileTracker RunBaseline(SimTime seconds);

  /// Migrates `tenant_id` to server 1 and runs until it finishes.
  /// Returns false, leaving `report` alone, if it did not start or did
  /// not finish within `max_seconds`.
  bool RunMigration(const MigrationOptions& options, MigrationReport* report,
                    SimTime max_seconds, uint64_t tenant_id = 1);

  /// Latency samples completed in [t0, t1] across all pools (ms).
  PercentileTracker LatenciesBetween(SimTime t0, SimTime t1) const;
  /// Every pool's (completion time, latency) samples, by time.
  common::TimeSeries MergedLatencySeries() const;

  /// Ends the run: stops drivers, pools and sampler, writes the
  /// trace and CSV, detaches the tracer, then audits (below) and
  /// prints the verdict. Returns false if the audit failed.
  bool Finish();

  /// Runs the stopped fleet in 1 s steps (at most 600 s) until every
  /// pool is idle and no migration job is in flight, then checks every
  /// tenant: each acked write of its pools (merged by LSN, newest wins)
  /// is present with its digest at the ResolveForKey owner, its range
  /// table passes ValidateCoverage, and every range's owner is up and
  /// holds an instance of the tenant. Finish() calls it; calling it
  /// again re-checks without re-draining.
  FleetAudit Audit();

  sim::Simulator* sim() { return &sim_; }
  Cluster* cluster() { return cluster_.get(); }
  const std::vector<std::unique_ptr<workload::ClientPool>>& pools() const {
    return pools_;
  }
  /// The workload of the `i`-th AddPool.
  workload::YcsbWorkload* workload(size_t i) { return workloads_[i].get(); }

 private:
  struct PoolSpec {
    uint64_t tenant_id;
    workload::YcsbConfig ycsb;
    uint64_t seed_salt;
  };

  bool Idle();
  uint64_t JobsInFlight();

  ExperimentOptions flags_;
  sim::Simulator sim_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<Cluster> cluster_;
  /// 1 Hz PublishMetrics into the tracer's registry (with `metrics`).
  std::unique_ptr<sim::PeriodicTimer> sampler_;
  std::vector<std::unique_ptr<workload::YcsbWorkload>> workloads_;
  std::vector<std::unique_ptr<workload::ClientPool>> pools_;
  std::vector<std::unique_ptr<workload::DiurnalPattern>> patterns_;
  std::vector<std::unique_ptr<workload::PatternDriver>> drivers_;
  /// How each pool was made, parallel to pools_.
  std::vector<PoolSpec> pool_specs_;
  /// (tenant, server it was placed on), in AddTenant order.
  std::vector<std::pair<uint64_t, uint64_t>> tenants_;
};

}  // namespace slacker::bench

#endif  // SLACKER_BENCH_FLEET_H_
