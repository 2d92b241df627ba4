#ifndef SLACKER_BENCH_HARNESS_H_
#define SLACKER_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/codec/codec.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/obs/trace.h"
#include "src/sla/sla.h"
#include "src/slacker/cluster.h"
#include "src/slacker/metrics.h"
#include "src/workload/client_pool.h"
#include "src/workload/trace.h"
#include "src/workload/ycsb.h"

namespace slacker::bench {

/// The two testbed configurations the paper evaluates.
///
/// Both use the paper's 1 GB tenant of 1 KiB rows and MPL 10. The disk
/// is calibrated so that a cold random page read costs ~8.3 ms and a
/// migration stream interleaved with OLTP I/O tops out near 27 MB/s —
/// which places the §3 case study's hard slack bound between 12 and
/// 16 MB/s and the §5 evaluation's knee near 23 MB/s, as in the paper.
enum class PaperConfig {
  /// §3.2 case study: 256 MB buffer pool, ~9 txn/s — about 55% of the
  /// disk consumed by the workload. Baseline latency ≈ 79 ms.
  kCaseStudy,
  /// §5 evaluation: 128 MB buffer pool, ~2.7 txn/s — about 20-25% of
  /// the disk consumed, leaving ≈ 23 MB/s of migration slack.
  kEvaluation,
};

struct ExperimentOptions {
  PaperConfig config = PaperConfig::kEvaluation;
  uint64_t seed = 42;
  /// Number of tenants sharing the source server (Fig. 13b uses 5);
  /// the total arrival rate is split evenly among them.
  int tenants = 1;
  /// Scale on the config's default arrival rate (1.0 = paper setting).
  double arrival_scale = 1.0;
  /// Warm-up before the migration starts (fills the buffer pool and
  /// the latency window).
  SimTime warmup_seconds = 30.0;
  /// Shrink the tenant for quick smoke runs (1.0 = full 1 GB).
  double size_scale = 1.0;
  /// When non-empty, the testbed installs a tracer and writes a Chrome
  /// trace-event JSON (chrome://tracing / Perfetto) here at teardown.
  std::string trace_path;
  /// When non-empty, PublishMetrics samples the cluster at 1 Hz into
  /// the tracer's registry (latency window, disk and CPU utilization,
  /// disk queue depth, migrations in flight), written to this CSV.
  std::string csv_path;
  /// Latency above which completed transactions emit SlaViolation
  /// events (0 disables; only meaningful with a tracer installed).
  double sla_threshold_ms = 0.0;
  /// Migration-stream codec (--codec=raw|lz|delta|adaptive). Defaults
  /// to raw so the golden fig12 traces stay byte-identical.
  codec::CodecMode codec_mode = codec::CodecMode::kRaw;
};

/// Parses the shared bench flags into `options`:
///   --trace <path>  --csv <path>  --seed <n>  --tenants <n>
///   --size-scale <x>  --arrival-scale <x>  --warmup <s>  --sla-ms <ms>
///   --codec <raw|lz|delta|adaptive>
/// Unknown flags warn and are ignored, so individual benches can keep
/// their own defaults without argument-order coupling. The result is
/// also remembered process-wide (see FlagOptions) for sweep benches
/// that construct scenarios inside helper functions. When a sweep
/// builds several testbeds with the same --trace/--csv paths, the last
/// run's files win.
void ApplyCommandLine(int argc, char** argv, ExperimentOptions* options);

/// A copy of the options most recently parsed by ApplyCommandLine
/// (plain defaults if it has not run yet).
ExperimentOptions FlagOptions();

/// A running testbed: cluster, tenants on server 0, and one client
/// pool per tenant. Construction populates the tenants and runs the
/// warm-up.
class Testbed {
 public:
  explicit Testbed(const ExperimentOptions& options);
  ~Testbed();

  sim::Simulator* sim() { return &sim_; }
  Cluster* cluster() { return cluster_.get(); }
  workload::ClientPool* pool(int i = 0) { return pools_[i].get(); }
  workload::YcsbWorkload* workload(int i = 0) { return workloads_[i].get(); }
  int tenant_count() const { return static_cast<int>(pools_.size()); }
  uint64_t tenant_id(int i = 0) const { return i + 1; }
  const ExperimentOptions& options() const { return options_; }
  /// Non-null when the options requested a trace or CSV.
  obs::Tracer* tracer() { return tracer_.get(); }

  /// MigrationOptions preset matching the paper: chunked hot backup,
  /// 1 s controller tick, paper PID gains.
  MigrationOptions BaseMigration() const;

  /// Runs the workload with no migration for `seconds`; returns the
  /// latency samples from that span.
  PercentileTracker RunBaseline(SimTime seconds);

  /// Starts migrating tenant `index`+1 to server 1 and runs until it
  /// finishes (plus `drain` seconds). Returns false if it did not
  /// finish within `max_seconds`.
  bool RunMigration(const MigrationOptions& options, MigrationReport* report,
                    int index = 0, SimTime max_seconds = 4000.0,
                    SimTime drain = 5.0);

  /// Latency samples recorded in [t0, t1] across all pools (ms).
  PercentileTracker LatenciesBetween(SimTime t0, SimTime t1) const;
  /// Merged (completion time, latency) series across pools.
  workload::TimeSeries MergedLatencySeries() const;

  void StopAll();

  /// Writes the trace/CSV outputs requested in the options (printing
  /// the paths) and detaches the tracer, once. Called by the
  /// destructor; call earlier to export before further simulation.
  void FinishObservability();

 private:
  ExperimentOptions options_;
  sim::Simulator sim_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<workload::YcsbWorkload>> workloads_;
  std::vector<std::unique_ptr<workload::ClientPool>> pools_;
  /// 1 Hz PublishMetrics into the tracer's registry; present from
  /// construction until FinishObservability when a tracer exists.
  std::unique_ptr<sim::PeriodicTimer> sampler_;
};

/// Disk/CPU/link settings shared by both paper configs.
ClusterOptions PaperClusterOptions();
/// Tenant geometry for a config (1 GB / buffer size per config).
engine::TenantConfig PaperTenantConfig(PaperConfig config, uint64_t tenant_id,
                                       double size_scale);
/// The config's default transaction inter-arrival time (seconds).
double PaperInterarrival(PaperConfig config);

// ------------------------------------------------------------------
// Output helpers: every bench prints paper-vs-measured rows.

/// Prints "== Figure 5b: ..." style headers.
void PrintHeader(const std::string& id, const std::string& description);
/// One aligned "name | paper | measured" row.
void PrintRow(const std::string& name, const std::string& paper,
              const std::string& measured);
/// Renders a time series as a fixed-width sparkline table (t, value).
void PrintSeries(const std::string& name,
                 const std::vector<workload::TracePoint>& points,
                 double col_seconds, double value_scale = 1.0);
std::string FormatMs(double ms);
std::string FormatMbps(double mbps);
std::string FormatSeconds(double s);

/// If the SLACKER_BENCH_CSV_DIR environment variable is set, writes the
/// raw series to <dir>/<name>.csv (for external plotting) and prints
/// the path; otherwise a no-op.
void MaybeWriteCsv(const std::string& name,
                   const workload::TimeSeries& series,
                   const std::string& value_name);

}  // namespace slacker::bench

#endif  // SLACKER_BENCH_HARNESS_H_
