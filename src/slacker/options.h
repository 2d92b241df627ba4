#ifndef SLACKER_SLACKER_OPTIONS_H_
#define SLACKER_SLACKER_OPTIONS_H_

#include <cstdint>
#include <string>

#include "src/backup/hot_backup.h"
#include "src/codec/codec.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/control/adaptive_pid.h"
#include "src/control/pid.h"
#include "src/range/key_range.h"

namespace slacker {

/// How the migration's transfer rate is managed.
enum class ThrottleKind {
  /// Manually chosen constant rate — the paper's baseline (§5.2).
  kFixed,
  /// Slacker's PID-driven dynamic throttle (§4).
  kPid,
  /// Self-tuning variant (§6): the PID gains are rescaled online from a
  /// recursive estimate of the latency-vs-rate plant gain.
  kAdaptivePid,
};

/// Migration mechanism.
enum class MigrationMode {
  /// Hot-backup snapshot + delta rounds + sub-second handover (§2.3.2).
  kLive,
  /// Freeze, copy the data directory, restart on the target (§2.3.1).
  /// Downtime is the whole copy.
  kStopAndCopy,
};

/// Import cost of a mysqldump-style stop-and-copy (file_level_copy
/// false), seconds per MiB reimported at the target.
inline constexpr SimTime kImportSecondsPerMib = 0.08;

/// Source-side cap on NACK-triggered chunk retransmissions before the
/// job gives up (a persistently corrupting path never converges).
inline constexpr int kMaxChunkRetransmits = 64;

/// Target side: a staging session that hears nothing from the source
/// for this long self-destructs (the source crashed mid-stream and its
/// job died with it). Staged chunks stay on disk for resume.
inline constexpr SimTime kSessionIdleTimeout = 45.0;

/// Everything that parameterizes one migration. Defaults reproduce the
/// paper's evaluation settings.
struct MigrationOptions {
  MigrationMode mode = MigrationMode::kLive;

  ThrottleKind throttle = ThrottleKind::kPid;
  /// kFixed: the constant rate (MB/s).
  double fixed_rate_mbps = 10.0;
  /// kPid: gains/setpoint/clamps. Defaults are the paper's.
  /// kAdaptivePid: used as AdaptivePidOptions::base.
  control::PidConfig pid;
  /// kAdaptivePid: identification/rescale parameters.
  control::AdaptivePidOptions adaptive;
  /// §6 "Throttling Both Source and Target": feed the controller
  /// max(source latency, target latency) instead of source only.
  bool use_target_latency = false;
  /// Controller timestep; the paper ticks once per second.
  SimTime controller_tick = 1.0;

  backup::HotBackupOptions backup;
  backup::PrepareOptions prepare;

  /// Stream codec policy (kRaw keeps the pre-codec wire format and
  /// byte-identical goldens). The codec cost rates are constants in
  /// codec.h, so both endpoints price the same work the same way.
  codec::CodecConfig codec;

  /// Handover begins once the pending delta shrinks below this.
  uint64_t delta_handover_bytes = 256 * kKiB;
  /// Hard cap on delta rounds (workloads with extreme write turnover
  /// never converge; give up and force the freeze, as in [12]).
  int max_delta_rounds = 50;
  /// Target-side CPU cost per MiB of applied delta. The target reads
  /// it from ClusterOptions::incoming_migration; a job's own copy is
  /// ignored.
  SimTime delta_apply_seconds_per_mib = 0.01;

  /// kStopAndCopy: file-level copy (true, §2.3.1's fast path) or
  /// mysqldump-style export/import (false), which pays an additional
  /// re-import cost at the target (kImportSecondsPerMib).
  bool file_level_copy = true;

  /// Watchdog: abort the migration if it has not completed within this
  /// many simulated seconds (0 disables). Protects against lost peers —
  /// a stalled migration otherwise holds its staging tenant and job
  /// slot forever.
  SimTime timeout_seconds = 0.0;

  /// Ask for kSnapshotResume: a retried migration to the same target
  /// continues from the last durably staged chunk instead of
  /// re-streaming the whole tenant. The target resumes whenever the
  /// request asks and it holds staged chunks.
  bool allow_resume = true;

  /// What the job moves (DESIGN.md §16). The full range, the default,
  /// is the whole tenant. A partial range must be one directory unit:
  /// the job snapshots, ships deltas and freezes just that unit, and
  /// its owner flips in the cluster's RangeDirectory at handover.
  /// Partial jobs never resume (staged-chunk bookkeeping is per-tenant)
  /// and require kLive mode.
  range::KeyRange range;

  Status Validate() const;
};

/// Phases of a live migration, for reporting.
enum class MigrationPhase {
  kNegotiate,
  kSnapshot,
  kPrepare,
  kDelta,
  kHandover,
  kDone,
  kFailed,
};

const char* MigrationPhaseName(MigrationPhase phase);

}  // namespace slacker

#endif  // SLACKER_SLACKER_OPTIONS_H_
