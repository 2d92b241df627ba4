#ifndef SLACKER_BENCH_HARNESS_H_
#define SLACKER_BENCH_HARNESS_H_

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/codec/codec.h"
#include "src/common/time_series.h"
#include "src/common/units.h"
#include "src/slacker/cluster.h"

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
  /// When non-empty, the fleet installs a tracer and writes a Chrome
  /// trace-event JSON (chrome://tracing / Perfetto) here at Finish().
  std::string trace_path;
  /// When non-empty, PublishMetrics samples the cluster at 1 Hz into
  /// the tracer's registry (latency window, disk and CPU utilization,
  /// disk queue depth, migrations in flight), written to this CSV.
  std::string csv_path;
  /// Latency above which completed transactions emit SlaViolation
  /// events (0 disables; only meaningful with a tracer installed).
  double sla_threshold_ms = 0.0;
  /// Migration-stream codec (--codec=raw|lz|adaptive). Defaults
  /// to raw so the golden fig12 traces stay byte-identical.
  codec::CodecMode codec_mode = codec::CodecMode::kRaw;
};

/// The command line every bench shares. A bench takes a fleet flag only
/// if it gives it a default: an empty `json_path` means no --json, a
/// zero `servers` means no --servers / --fleet-tenants, and a zero
/// `ranges` means no --ranges.
struct FleetFlags {
  explicit FleetFlags(std::string json = "", int servers_default = 0,
                      int tenants_default = 0, size_t ranges_default = 0)
      : json_path(std::move(json)),
        servers(servers_default),
        tenants(tenants_default),
        ranges(ranges_default) {}

  bool smoke = false;
  /// False for a bench whose scenarios pin their own options: --trace
  /// and --csv would write nothing, so they are rejected as unknown.
  bool takes_trace = true;
  std::string json_path;
  int servers;
  int tenants;
  size_t ranges;
  /// --trace <path>  --csv <path>  --seed <n>  --tenants <n>
  /// --size-scale <x>  --arrival-scale <x>  --warmup <s>  --sla-ms <ms>
  /// --codec <raw|lz|adaptive>
  ExperimentOptions options;
};

/// Parses argv into `flags` and sets each `switches` entry whose flag is
/// present. Prints usage and exits with code 2 on an unknown flag, a
/// flag without its value, a malformed number or --codec, a count below
/// 1, a negative time, a scale that is not positive, or a
/// --fleet-tenants that is not a multiple of --servers.
void ParseFleetFlags(
    int argc, char** argv, FleetFlags* flags,
    std::initializer_list<std::pair<const char*, bool*>> switches = {});

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
                 const std::vector<common::TracePoint>& points,
                 double col_seconds, double value_scale = 1.0);
std::string FormatMs(double ms);
std::string FormatMbps(double mbps);
std::string FormatSeconds(double s);

/// Prints one "(gate ok: <name>)" or "(gate FAILED: <name>)" line and
/// returns `pass`. A bench exits non-zero if any of its gates failed.
bool Gate(const std::string& name, bool pass);

/// If the SLACKER_BENCH_CSV_DIR environment variable is set, writes the
/// raw series to <dir>/<name>.csv (for external plotting) and prints
/// the path; otherwise a no-op.
void MaybeWriteCsv(const std::string& name,
                   const common::TimeSeries& series,
                   const std::string& value_name);

}  // namespace slacker::bench

#endif  // SLACKER_BENCH_HARNESS_H_
