#ifndef SLACKER_OBS_EVENTS_H_
#define SLACKER_OBS_EVENTS_H_

#include <cstdint>
#include <string>

#include "src/obs/trace.h"

namespace slacker::obs {

// Typed structured events — the domain vocabulary of a Slacker trace.
// Each Emit* helper is null-safe (a null or disabled tracer makes it a
// no-op) and owns the canonical event/track naming, so every emitter
// and every exporter agree on what a "throttle" event looks like.

/// Track naming shared by emitters and instrumented classes.
std::string MigrationTrack(uint64_t tenant_id);
std::string SupervisorTrack(uint64_t tenant_id);
inline const char* FaultTrack() { return "faults"; }
inline const char* SlaTrack() { return "sla"; }
inline const char* RebalancerTrack() { return "rebalancer"; }
inline const char* UpgradeTrack() { return "upgrade"; }
inline const char* ForecastTrack() { return "forecast"; }

/// A migration moved between phases (negotiate → snapshot → ...).
struct PhaseTransition {
  uint64_t tenant_id = 0;
  uint64_t source_server = 0;
  uint64_t target_server = 0;
  std::string from;
  std::string to;
};
void EmitPhaseTransition(Tracer* tracer, const PhaseTransition& e);

/// One controller tick's throttle decision, with the PID decomposition
/// when a PID-family policy drove it (p/i/d are the velocity-form
/// per-term deltas for that tick).
struct ThrottleUpdate {
  uint64_t tenant_id = 0;
  std::string policy;
  double rate_mbps = 0.0;
  double latency_ms = 0.0;
  bool has_pid_terms = false;
  double setpoint_ms = 0.0;
  double error_ms = 0.0;
  double p = 0.0;
  double i = 0.0;
  double d = 0.0;
};
void EmitThrottleUpdate(Tracer* tracer, const ThrottleUpdate& e);

/// One delta round left the source.
struct DeltaRoundShipped {
  uint64_t tenant_id = 0;
  int round = 0;
  uint64_t bytes = 0;
  /// Binlog bytes still unshipped after this round was read — the lag
  /// the convergence loop is trying to drive to zero.
  uint64_t remaining_bytes = 0;
};
void EmitDeltaRoundShipped(Tracer* tracer, const DeltaRoundShipped& e);

/// One snapshot chunk left the source.
struct SnapshotChunkSent {
  uint64_t tenant_id = 0;
  uint64_t seq = 0;
  uint64_t bytes = 0;
};
void EmitSnapshotChunkSent(Tracer* tracer, const SnapshotChunkSent& e);

/// One chunk (snapshot or delta round) left the source through the
/// codec pipeline: which codec the selector picked and what it cost.
struct CodecChunkEncoded {
  uint64_t tenant_id = 0;
  uint64_t seq = 0;
  std::string codec;
  uint64_t logical_bytes = 0;
  uint64_t wire_bytes = 0;
  double cpu_ms = 0.0;
};
void EmitCodecChunkEncoded(Tracer* tracer, const CodecChunkEncoded& e);

/// The target NACKed the stream; the source rewinds (go-back-N).
struct SnapshotNack {
  uint64_t tenant_id = 0;
  uint64_t rewind_to_seq = 0;
  uint64_t chunks_resent = 0;
};
void EmitSnapshotNack(Tracer* tracer, const SnapshotNack& e);

/// A supervisor scheduled a retry after a failed attempt.
struct SupervisorRetry {
  uint64_t tenant_id = 0;
  int attempt = 0;
  double backoff_seconds = 0.0;
  std::string status;
};
void EmitSupervisorRetry(Tracer* tracer, const SupervisorRetry& e);

/// A cluster fault fired (crash/restart/partition/heal).
struct FaultFired {
  std::string kind;
  uint64_t server_id = 0;
  bool has_peer = false;
  uint64_t peer = 0;
};
void EmitFaultFired(Tracer* tracer, const FaultFired& e);

/// A transaction completed above the SLA latency threshold.
struct SlaViolation {
  uint64_t tenant_id = 0;
  double latency_ms = 0.0;
  double threshold_ms = 0.0;
};
void EmitSlaViolation(Tracer* tracer, const SlaViolation& e);

/// The rebalancer's admission verdict on one migration plan — the
/// trace answers *why* a plan ran or was held back.
struct RebalanceDecision {
  uint64_t tenant_id = 0;
  uint64_t source_server = 0;
  uint64_t target_server = 0;
  bool admitted = false;
  /// "relief" or "consolidation".
  std::string kind;
  /// "admitted", or the deferral reason: "tenant-busy",
  /// "budget:total", "budget:source", "budget:target", "guard-band".
  std::string reason;
};
void EmitRebalanceDecision(Tracer* tracer, const RebalanceDecision& e);

/// A server entered or left drain mode (maintenance evacuation).
struct ServerDrain {
  uint64_t server_id = 0;
  bool draining = false;
  /// Tenants still hosted when the state flipped.
  uint64_t tenants_remaining = 0;
};
void EmitServerDrain(Tracer* tracer, const ServerDrain& e);

/// A server's software version changed (patch or rollback).
struct ServerVersionChange {
  uint64_t server_id = 0;
  uint32_t from_version = 0;
  uint32_t to_version = 0;
};
void EmitServerVersionChange(Tracer* tracer, const ServerVersionChange& e);

/// A mixed-version migration pair resolved its codec capability set.
struct CodecNegotiated {
  uint64_t tenant_id = 0;
  uint32_t source_version = 0;
  uint32_t target_version = 0;
  /// Requested vs. negotiated CodecMode names ("raw", "lz", ...).
  std::string requested;
  std::string negotiated;
};
void EmitCodecNegotiated(Tracer* tracer, const CodecNegotiated& e);

/// A rolling-upgrade wave changed state (drain/patch/observe/...), or
/// the whole run finished. `action` is one of "wave_wait_trough",
/// "wave_drain", "wave_patch", "wave_observe", "wave_done", "gate_trip",
/// "rollback", "upgrade_done", "upgrade_aborted".
struct UpgradeWaveEvent {
  int wave = 0;
  std::string action;
  int servers_in_wave = 0;
  double violation_seconds = 0.0;
  uint64_t failed_migrations = 0;
  std::string detail;
};
void EmitUpgradeWaveEvent(Tracer* tracer, const UpgradeWaveEvent& e);

/// The forecast subsystem re-ran cycle detection for a server: the
/// discovered period/phase, the model's current prediction, and the
/// one-step forecast error (DESIGN.md §13).
struct ForecastUpdated {
  uint64_t server_id = 0;
  bool periodic = false;
  double period_seconds = 0.0;
  /// Trough phase offset within the period (seconds from the sampling
  /// epoch, mod period).
  double trough_phase_seconds = 0.0;
  double confidence = 0.0;
  double current_load = 0.0;
  double predicted_load = 0.0;
  /// EWMA of |one-step-ahead forecast error| in load units.
  double mean_abs_error = 0.0;
  double next_trough_start = 0.0;
};
void EmitForecastUpdated(Tracer* tracer, const ForecastUpdated& e);

/// The trough scheduler deferred a unit of non-urgent work into a
/// predicted trough: when it will run, its hard deadline, and the
/// predicted violation-seconds saved by waiting.
struct TroughScheduled {
  uint64_t tenant_id = 0;
  uint64_t source_server = 0;
  uint64_t target_server = 0;
  /// "consolidation", "drain", "upgrade-wave".
  std::string kind;
  double scheduled_start = 0.0;
  double deadline = 0.0;
  double cost_now = 0.0;
  double cost_scheduled = 0.0;
};
void EmitTroughScheduled(Tracer* tracer, const TroughScheduled& e);

/// One rebalancer control-loop tick's summary.
struct RebalanceTick {
  int overloaded_servers = 0;
  int plans = 0;
  int admitted = 0;
  int deferred = 0;
  int inflight = 0;
};
void EmitRebalanceTick(Tracer* tracer, const RebalanceTick& e);

}  // namespace slacker::obs

#endif  // SLACKER_OBS_EVENTS_H_
