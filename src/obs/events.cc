#include "src/obs/events.h"

#include <utility>

namespace slacker::obs {
namespace {

Event MakeInstant(const Tracer* tracer, std::string track, std::string name,
                  std::string category) {
  Event event;
  event.kind = EventKind::kInstant;
  event.track = std::move(track);
  event.name = std::move(name);
  event.category = std::move(category);
  event.time = tracer->NowSim();
  return event;
}

}  // namespace

std::string MigrationTrack(uint64_t tenant_id) {
  return "tenant " + std::to_string(tenant_id) + " migration";
}

std::string SupervisorTrack(uint64_t tenant_id) {
  return "tenant " + std::to_string(tenant_id) + " supervisor";
}

void EmitPhaseTransition(Tracer* tracer, const PhaseTransition& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, MigrationTrack(e.tenant_id),
                            "phase:" + e.to, "migration");
  event.args.emplace_back("tenant", static_cast<double>(e.tenant_id));
  event.args.emplace_back("source", static_cast<double>(e.source_server));
  event.args.emplace_back("target", static_cast<double>(e.target_server));
  event.notes.emplace_back("from", e.from);
  event.notes.emplace_back("to", e.to);
  tracer->RecordEvent(std::move(event));
}

void EmitThrottleUpdate(Tracer* tracer, const ThrottleUpdate& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, MigrationTrack(e.tenant_id), "throttle",
                            "control");
  event.args.emplace_back("rate_mbps", e.rate_mbps);
  event.args.emplace_back("latency_ms", e.latency_ms);
  if (e.has_pid_terms) {
    event.args.emplace_back("setpoint_ms", e.setpoint_ms);
    event.args.emplace_back("error_ms", e.error_ms);
    event.args.emplace_back("p", e.p);
    event.args.emplace_back("i", e.i);
    event.args.emplace_back("d", e.d);
  }
  event.notes.emplace_back("policy", e.policy);
  tracer->RecordEvent(std::move(event));

  // Companion counter event so the viewer graphs the rate over time.
  Event counter = MakeInstant(tracer, MigrationTrack(e.tenant_id),
                              "throttle_rate_mbps", "control");
  counter.kind = EventKind::kCounter;
  counter.args.emplace_back("mbps", e.rate_mbps);
  tracer->RecordEvent(std::move(counter));
}

void EmitDeltaRoundShipped(Tracer* tracer, const DeltaRoundShipped& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, MigrationTrack(e.tenant_id), "delta_round",
                            "migration");
  event.args.emplace_back("round", static_cast<double>(e.round));
  event.args.emplace_back("bytes", static_cast<double>(e.bytes));
  event.args.emplace_back("remaining_bytes",
                          static_cast<double>(e.remaining_bytes));
  tracer->RecordEvent(std::move(event));
}

void EmitSnapshotChunkSent(Tracer* tracer, const SnapshotChunkSent& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, MigrationTrack(e.tenant_id),
                            "snapshot_chunk", "migration");
  event.args.emplace_back("seq", static_cast<double>(e.seq));
  event.args.emplace_back("bytes", static_cast<double>(e.bytes));
  tracer->RecordEvent(std::move(event));
}

void EmitCodecChunkEncoded(Tracer* tracer, const CodecChunkEncoded& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, MigrationTrack(e.tenant_id),
                            "codec_chunk", "codec");
  event.args.emplace_back("seq", static_cast<double>(e.seq));
  event.args.emplace_back("logical_bytes",
                          static_cast<double>(e.logical_bytes));
  event.args.emplace_back("wire_bytes", static_cast<double>(e.wire_bytes));
  event.args.emplace_back("cpu_ms", e.cpu_ms);
  event.notes.emplace_back("codec", e.codec);
  tracer->RecordEvent(std::move(event));
}

void EmitSnapshotNack(Tracer* tracer, const SnapshotNack& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, MigrationTrack(e.tenant_id),
                            "snapshot_nack", "migration");
  event.args.emplace_back("rewind_to_seq",
                          static_cast<double>(e.rewind_to_seq));
  event.args.emplace_back("chunks_resent",
                          static_cast<double>(e.chunks_resent));
  tracer->RecordEvent(std::move(event));
}

void EmitSupervisorRetry(Tracer* tracer, const SupervisorRetry& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, SupervisorTrack(e.tenant_id), "retry",
                            "supervisor");
  event.args.emplace_back("attempt", static_cast<double>(e.attempt));
  event.args.emplace_back("backoff_s", e.backoff_seconds);
  event.notes.emplace_back("status", e.status);
  tracer->RecordEvent(std::move(event));
}

void EmitFaultFired(Tracer* tracer, const FaultFired& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, FaultTrack(), "fault:" + e.kind, "fault");
  event.args.emplace_back("server", static_cast<double>(e.server_id));
  if (e.has_peer) {
    event.args.emplace_back("peer", static_cast<double>(e.peer));
  }
  event.notes.emplace_back("kind", e.kind);
  tracer->RecordEvent(std::move(event));
}

void EmitSlaViolation(Tracer* tracer, const SlaViolation& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, SlaTrack(), "sla_violation", "sla");
  event.args.emplace_back("tenant", static_cast<double>(e.tenant_id));
  event.args.emplace_back("latency_ms", e.latency_ms);
  event.args.emplace_back("threshold_ms", e.threshold_ms);
  tracer->RecordEvent(std::move(event));
}

void EmitRebalanceDecision(Tracer* tracer, const RebalanceDecision& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, RebalancerTrack(),
                            e.admitted ? "plan_admitted" : "plan_deferred",
                            "rebalance");
  event.args.emplace_back("tenant", static_cast<double>(e.tenant_id));
  event.args.emplace_back("source", static_cast<double>(e.source_server));
  event.args.emplace_back("target", static_cast<double>(e.target_server));
  event.notes.emplace_back("kind", e.kind);
  event.notes.emplace_back("reason", e.reason);
  tracer->RecordEvent(std::move(event));
}

void EmitServerDrain(Tracer* tracer, const ServerDrain& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, UpgradeTrack(),
                            e.draining ? "drain_start" : "drain_end",
                            "upgrade");
  event.args.emplace_back("server", static_cast<double>(e.server_id));
  event.args.emplace_back("tenants_remaining",
                          static_cast<double>(e.tenants_remaining));
  tracer->RecordEvent(std::move(event));
}

void EmitServerVersionChange(Tracer* tracer, const ServerVersionChange& e) {
  if (tracer == nullptr) return;
  Event event =
      MakeInstant(tracer, UpgradeTrack(), "version_change", "upgrade");
  event.args.emplace_back("server", static_cast<double>(e.server_id));
  event.args.emplace_back("from", static_cast<double>(e.from_version));
  event.args.emplace_back("to", static_cast<double>(e.to_version));
  tracer->RecordEvent(std::move(event));
}

void EmitCodecNegotiated(Tracer* tracer, const CodecNegotiated& e) {
  if (tracer == nullptr) return;
  Event event = MakeInstant(tracer, MigrationTrack(e.tenant_id),
                            "codec_negotiated", "upgrade");
  event.args.emplace_back("source_version",
                          static_cast<double>(e.source_version));
  event.args.emplace_back("target_version",
                          static_cast<double>(e.target_version));
  event.notes.emplace_back("requested", e.requested);
  event.notes.emplace_back("negotiated", e.negotiated);
  tracer->RecordEvent(std::move(event));
}

void EmitUpgradeWaveEvent(Tracer* tracer, const UpgradeWaveEvent& e) {
  if (tracer == nullptr) return;
  Event event =
      MakeInstant(tracer, UpgradeTrack(), "upgrade:" + e.action, "upgrade");
  event.args.emplace_back("wave", static_cast<double>(e.wave));
  event.args.emplace_back("servers", static_cast<double>(e.servers_in_wave));
  event.args.emplace_back("violation_seconds", e.violation_seconds);
  event.args.emplace_back("failed_migrations",
                          static_cast<double>(e.failed_migrations));
  event.notes.emplace_back("action", e.action);
  if (!e.detail.empty()) event.notes.emplace_back("detail", e.detail);
  tracer->RecordEvent(std::move(event));
}

void EmitForecastUpdated(Tracer* tracer, const ForecastUpdated& e) {
  if (tracer == nullptr) return;
  Event event =
      MakeInstant(tracer, ForecastTrack(), "forecast_update", "forecast");
  event.args.emplace_back("server", static_cast<double>(e.server_id));
  event.args.emplace_back("periodic", e.periodic ? 1.0 : 0.0);
  event.args.emplace_back("period_s", e.period_seconds);
  event.args.emplace_back("trough_phase_s", e.trough_phase_seconds);
  event.args.emplace_back("confidence", e.confidence);
  event.args.emplace_back("current_load", e.current_load);
  event.args.emplace_back("predicted_load", e.predicted_load);
  event.args.emplace_back("mae", e.mean_abs_error);
  event.args.emplace_back("next_trough_start", e.next_trough_start);
  tracer->RecordEvent(std::move(event));
}

void EmitTroughScheduled(Tracer* tracer, const TroughScheduled& e) {
  if (tracer == nullptr) return;
  Event event =
      MakeInstant(tracer, ForecastTrack(), "trough_scheduled", "forecast");
  event.args.emplace_back("tenant", static_cast<double>(e.tenant_id));
  event.args.emplace_back("source", static_cast<double>(e.source_server));
  event.args.emplace_back("target", static_cast<double>(e.target_server));
  event.args.emplace_back("scheduled_start", e.scheduled_start);
  event.args.emplace_back("deadline", e.deadline);
  event.args.emplace_back("cost_now", e.cost_now);
  event.args.emplace_back("cost_scheduled", e.cost_scheduled);
  event.notes.emplace_back("kind", e.kind);
  tracer->RecordEvent(std::move(event));
}

void EmitRebalanceTick(Tracer* tracer, const RebalanceTick& e) {
  if (tracer == nullptr) return;
  Event event =
      MakeInstant(tracer, RebalancerTrack(), "rebalance_tick", "rebalance");
  event.args.emplace_back("overloaded",
                          static_cast<double>(e.overloaded_servers));
  event.args.emplace_back("plans", static_cast<double>(e.plans));
  event.args.emplace_back("admitted", static_cast<double>(e.admitted));
  event.args.emplace_back("deferred", static_cast<double>(e.deferred));
  event.args.emplace_back("inflight", static_cast<double>(e.inflight));
  tracer->RecordEvent(std::move(event));

  // Companion counter so the viewer graphs hotspot count over time.
  Event counter = MakeInstant(tracer, RebalancerTrack(),
                              "overloaded_servers", "rebalance");
  counter.kind = EventKind::kCounter;
  counter.args.emplace_back("servers",
                            static_cast<double>(e.overloaded_servers));
  tracer->RecordEvent(std::move(counter));
}

}  // namespace slacker::obs
