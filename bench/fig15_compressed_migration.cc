// Figure 15 (extension): adaptive compression on the migration stream.
// Sweeps throttle ceiling x codec mode on the compressible paper
// workload (payload_redundancy = 0.5, so LZ approaches a 2:1 ratio)
// and reports migration time, latency p95 at the same 1000 ms
// setpoint, and the achieved wire compression ratio.
//
// The interesting pair is the *network-bound* ceiling (12 MB/s, well
// under the disk's contended sequential rate): there the throttle
// meters wire bytes, so a 2:1 codec nearly doubles logical throughput
// and the adaptive selector must engage. Acceptance: adaptive reaches
// handover in <= 0.7x the raw migration time at that ceiling. The
// disk-bound ceiling (30 MB/s) is the honest contrast — the disk, not
// the wire, is the bottleneck, and compression buys little.
//
//   --smoke    quarter-size tenant, short warmup (CI-sized)
// plus the shared bench flags (--seed, --trace, --csv, ...).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/fleet.h"

namespace slacker::bench {
namespace {

struct SweepResult {
  codec::CodecMode mode = codec::CodecMode::kRaw;
  double output_max = 0.0;
  bool done = false;
  double seconds = 0.0;
  double p95_ms = 0.0;
  double ratio = 1.0;
  uint64_t chunks_lz = 0;
  bool audited = false;
};

SweepResult RunOne(const ExperimentOptions& base, double output_max,
                   codec::CodecMode mode) {
  ExperimentOptions options = base;
  options.config = PaperConfig::kEvaluation;
  options.codec_mode = mode;
  Fleet bed(options);
  MigrationOptions migration = bed.BaseMigration();
  migration.pid.setpoint = 1000.0;
  migration.pid.output_max = output_max;
  // Short prepare (as in fig14): the sweep compares stream codecs, so
  // the fixed tablespace-fixup cost should not dilute the ratio.
  migration.prepare.base_seconds = 0.5;

  const uint64_t checks_before = bed.cluster()->auditor()->checks_passed();
  MigrationReport report;
  const SimTime start = bed.sim()->Now();
  SweepResult result;
  result.mode = mode;
  result.output_max = output_max;
  result.done = bed.RunMigration(migration, &report, 4000.0);
  const SimTime end = bed.sim()->Now();
  if (bed.cluster()->auditor()->checks_passed() <= checks_before) {
    std::fprintf(stderr, "conservation audit did not run\n");
    result.done = false;
  }
  result.seconds = report.DurationSeconds();
  result.p95_ms = bed.LatenciesBetween(start, end).Percentile(95.0);
  result.ratio = report.CompressionRatio();
  result.chunks_lz = report.chunks_lz;
  result.audited = bed.Finish();
  return result;
}

std::string FormatRatio(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ratio);
  return buf;
}

}  // namespace
}  // namespace slacker::bench

int main(int argc, char** argv) {
  using namespace slacker::bench;
  using namespace slacker;

  FleetFlags flags;
  ParseFleetFlags(argc, argv, &flags);
  ExperimentOptions base = flags.options;
  if (flags.smoke) {
    base.size_scale = 0.5;
    base.warmup_seconds = 10.0;
  }

  const double kNetworkBound = 12.0;  // MB/s: wire is the bottleneck.
  const double kDiskBound = 30.0;     // MB/s: disk is the bottleneck.
  const codec::CodecMode kModes[] = {codec::CodecMode::kRaw,
                                     codec::CodecMode::kLz,
                                     codec::CodecMode::kAdaptive};

  PrintHeader("Figure 15",
              "compressed migration: throttle ceiling x codec mode");
  std::vector<SweepResult> results;
  for (const double output_max : {kNetworkBound, kDiskBound}) {
    for (const codec::CodecMode mode : kModes) {
      results.push_back(RunOne(base, output_max, mode));
      const SweepResult& r = results.back();
      char name[64];
      std::snprintf(name, sizeof(name), "ceiling %2.0f MB/s, codec %s",
                    r.output_max, codec::CodecModeName(r.mode));
      char measured[96];
      std::snprintf(measured, sizeof(measured),
                    "%s, p95 %s, ratio %s",
                    r.done ? FormatSeconds(r.seconds).c_str()
                           : "DID NOT FINISH",
                    FormatMs(r.p95_ms).c_str(), FormatRatio(r.ratio).c_str());
      PrintRow(name, "-", measured);
    }
  }

  // Acceptance: on the network-bound ceiling the adaptive codec must
  // reach handover in <= 0.7x the raw migration time (same setpoint).
  const SweepResult& net_raw = results[0];
  const SweepResult& net_adaptive = results[2];
  const SweepResult& disk_raw = results[3];
  const SweepResult& disk_adaptive = results[5];
  bool all_done = true, audited = true;
  for (const SweepResult& r : results) {
    all_done = all_done && r.done;
    audited = audited && r.audited;
  }
  const double net_speedup =
      net_raw.seconds > 0.0 ? net_adaptive.seconds / net_raw.seconds : 1.0;
  const double disk_speedup =
      disk_raw.seconds > 0.0 ? disk_adaptive.seconds / disk_raw.seconds : 1.0;
  char speedup[32];
  std::snprintf(speedup, sizeof(speedup), "%.2fx raw time", net_speedup);
  PrintRow("adaptive vs raw, network-bound", "<= 0.70x raw time", speedup);
  std::snprintf(speedup, sizeof(speedup), "%.2fx raw time", disk_speedup);
  PrintRow("adaptive vs raw, disk-bound", "~1x (disk limited)", speedup);
  PrintRow("adaptive engaged LZ when network-bound", "yes",
           net_adaptive.chunks_lz > 0 ? "yes" : "NO");

  const bool ok = all_done && net_adaptive.chunks_lz > 0 &&
                  net_speedup <= 0.7;
  PrintRow("acceptance", "adaptive <= 0.7x raw when network-bound",
           ok ? "met" : "NOT MET");
  return ok && audited ? 0 : 1;
}
