#ifndef SLACKER_SLACKER_MIGRATION_H_
#define SLACKER_SLACKER_MIGRATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/backup/delta_shipper.h"
#include "src/backup/hot_backup.h"
#include "src/codec/chunk_codec.h"
#include "src/codec/selector.h"
#include "src/common/status.h"
#include "src/common/time_series.h"
#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/net/message.h"
#include "src/obs/trace.h"
#include "src/range/key_range.h"
#include "src/resource/token_bucket.h"
#include "src/sim/callback.h"
#include "src/sim/lifetime.h"
#include "src/sim/simulator.h"
#include "src/slacker/durable_store.h"
#include "src/slacker/options.h"
#include "src/slacker/throttle_policy.h"

namespace slacker {

class Cluster;

/// One try of a supervised migration (MigrationSupervisor fills these).
/// [[nodiscard]]: an attempt record carries the attempt's Status.
struct [[nodiscard]] MigrationAttempt {
  int attempt = 0;
  Status status;
  SimTime start_time = 0.0;
  SimTime end_time = 0.0;
  /// Bytes the resume negotiation saved this attempt (already staged at
  /// the target, not re-streamed).
  uint64_t resumed_bytes = 0;
};

/// Everything measured about one migration. [[nodiscard]]: the report
/// carries the migration's outcome Status — dropping a returned report
/// discards the only record of whether the migration succeeded.
struct [[nodiscard]] MigrationReport {
  Status status;
  uint64_t tenant_id = 0;
  uint64_t source_server = 0;
  uint64_t target_server = 0;
  MigrationMode mode = MigrationMode::kLive;
  /// Derived from `range`: true exactly when a partial range moved
  /// (DESIGN.md §16).
  bool range_scoped = false;
  range::KeyRange range;
  std::string throttle_name;

  SimTime start_time = 0.0;
  SimTime end_time = 0.0;
  SimTime negotiate_seconds = 0.0;
  SimTime snapshot_seconds = 0.0;
  SimTime prepare_seconds = 0.0;
  SimTime delta_seconds = 0.0;
  SimTime handover_seconds = 0.0;

  /// Span during which the tenant could not serve queries (freeze →
  /// directory switch). The paper's headline: "well under 1 second" for
  /// live migration; the whole copy for stop-and-copy.
  double downtime_ms = 0.0;

  uint64_t snapshot_bytes = 0;
  uint64_t delta_bytes = 0;
  /// Post-codec bytes actually metered through throttle and link
  /// (equal to the logical counts when the stream ships raw).
  uint64_t snapshot_wire_bytes = 0;
  uint64_t delta_wire_bytes = 0;
  /// Per-chunk codec decisions (snapshot chunks + delta rounds).
  uint64_t chunks_raw = 0;
  uint64_t chunks_lz = 0;
  /// Modeled source-side CPU spent compressing.
  double codec_cpu_seconds = 0.0;
  int delta_rounds = 0;
  /// Source and target state digests agreed at handover.
  bool digest_match = false;

  /// Tries the supervisor made (1 for an unsupervised job).
  int attempt_count = 1;
  /// Bytes skipped thanks to kSnapshotResume (durably staged at the
  /// target by earlier attempts; summed across attempts under a
  /// supervisor).
  uint64_t resumed_bytes = 0;
  /// Chunks re-sent after target NACKs (gaps or CRC failures).
  uint64_t chunks_retransmitted = 0;
  /// Per-attempt outcomes when a MigrationSupervisor drove the job.
  std::vector<MigrationAttempt> attempts;

  /// (time, MB/s) per controller tick.
  common::TimeSeries throttle_series;
  /// (time, ms) process variable per tick (PID throttle only).
  common::TimeSeries controller_latency_series;

  SimTime DurationSeconds() const { return end_time - start_time; }
  /// Payload moved divided by wall time — the paper's "average throttle
  /// speed over the entire duration of migration".
  double AverageRateMbps() const;
  /// Logical bytes / wire bytes across snapshot + delta (1.0 when the
  /// stream shipped raw).
  double CompressionRatio() const;
};

/// Source-side driver of one migration (§2.3.2's three steps plus
/// negotiation): requests a staging instance on the target, streams the
/// hot-backup snapshot through the throttle, waits out prepare, ships
/// delta rounds until they are small, then performs the freeze-and-
/// handover. Owns the pv token bucket and the 1 Hz controller tick.
class MigrationJob {
 public:
  using DoneCallback = sim::Callback<void(const MigrationReport&)>;

  MigrationJob(Cluster* cluster, uint64_t tenant_id,
               uint64_t source_server, uint64_t target_server,
               const MigrationOptions& options, DoneCallback done);

  MigrationJob(const MigrationJob&) = delete;
  MigrationJob& operator=(const MigrationJob&) = delete;

  /// Validates preconditions and sends the migrate request.
  Status Start();

  /// Cancels an in-flight migration: the source stays authoritative
  /// (and resumes service if stop-and-copy had frozen it), the target
  /// discards its staging instance, and the done callback fires with
  /// kAborted. Refused once the handover has begun — at that point the
  /// freeze window is already sub-second and rollback would race the
  /// authority switch.
  Status Cancel(const std::string& reason);

  /// Feeds responses (accept/acks/abort) from the target controller.
  void HandleMessage(const net::Message& message);

  MigrationPhase phase() const { return phase_; }
  double current_rate_mbps() const;
  uint64_t tenant_id() const { return tenant_id_; }
  const MigrationReport& report() const { return report_; }

 private:
  void EnterPhase(MigrationPhase phase);
  void StartController();
  void OnTick(SimTime now);
  /// Target accepted; `message` is kMigrateAccept (fresh) or
  /// kSnapshotResume (continue from the target's staged chunks).
  void OnAccepted(bool resume_offer, const net::Message& message);
  /// Resolves the codec capability set with the target's advertised
  /// version/mask (net/negotiation.h); mixed-version pairs downgrade
  /// deterministically, never fail. No-op for legacy (v0) pairs.
  void NegotiateCapabilities(const net::Message& message);
  void BeginSnapshot();
  /// Streams the snapshot through the throttle. With a codec a chunk is
  /// read and encoded before its tokens are acquired, raw after.
  void PumpSnapshot();
  /// Reads the next chunk into pending_chunk_, encoded under the
  /// selector's choice or as a raw frame when selector_ is null.
  void ProducePendingChunk();
  void OnSnapshotDrained();
  /// Target reported a gap or corrupt chunk: go-back-N to `chunk_seq`.
  void OnSnapshotNack(const net::Message& message);
  void BeginPrepare();
  void BeginDeltaRounds();
  /// Ships one delta round, read before or after its tokens as in
  /// PumpSnapshot.
  void ShipNextDelta();
  /// A delta round with its frame and modeled encode CPU.
  struct PendingRound {
    backup::DeltaRound round;
    codec::FrameHeader frame;
    double cpu_seconds = 0.0;
  };
  /// Reads, encodes, accounts and traces the next round; empty when the
  /// target is caught up and the job began the handover instead.
  std::optional<PendingRound> ReadDeltaRound();
  /// Disk read, encode CPU, then kDeltaBatch to the target.
  void SendDeltaRound(PendingRound pending);
  /// The throttle rate and source CPU load the selector decides from.
  codec::SelectorInputs CurrentSelectorInputs() const;
  /// Counts one chunk or round's codec and encode CPU in the report;
  /// LZ ratios feed the selector.
  void CountChunk(const codec::FrameHeader& frame, double cpu_seconds);
  /// The codec_chunk event and codec counters; no-op for raw streams.
  void EmitCodecChunk(uint64_t seq, const codec::FrameHeader& frame,
                      double cpu_seconds);
  void BeginHandover();
  void OnSourceDrained();
  void OnHandoverAck(const net::Message& message);
  void Finish(Status status);
  void ArmWatchdog(SimTime delay);
  /// Sends the target a kMigrateAbort carrying `error`, unfreezes the
  /// source and finishes with `status`. No phase guard (Cancel() adds
  /// one), so the watchdog also escalates a stuck handover with it.
  void Abort(const std::string& error, Status status);

  /// The controller's actuator clamp for this job's throttle kind, fed
  /// to the invariant auditor each tick.
  void ThrottleBounds(double* min_mbps, double* max_mbps) const;

  Cluster* cluster_;
  sim::Simulator* sim_;
  uint64_t tenant_id_;
  uint64_t source_server_;
  uint64_t target_server_;
  MigrationOptions options_;
  DoneCallback done_;

  // Observability (all inert when tracer_ is null). One span per phase,
  // one per freeze window, one per delta round in flight; gauges and
  // counters live in the tracer's registry.
  obs::Tracer* tracer_ = nullptr;
  std::string track_;
  obs::TraceSpan phase_span_;
  obs::TraceSpan freeze_span_;
  obs::TraceSpan delta_round_span_;
  obs::Gauge* rate_gauge_ = nullptr;
  obs::Counter* snapshot_bytes_counter_ = nullptr;
  obs::Counter* delta_bytes_counter_ = nullptr;
  obs::Counter* chunks_sent_counter_ = nullptr;
  // Codec metrics; registered lazily in Start() only when both tracing
  // and a non-raw codec are on, so default runs add no metric rows.
  obs::Counter* codec_logical_bytes_counter_ = nullptr;
  obs::Counter* codec_wire_bytes_counter_ = nullptr;
  obs::Counter* codec_cpu_us_counter_ = nullptr;
  obs::Gauge* codec_ratio_gauge_ = nullptr;

  engine::TenantDb* source_db_ = nullptr;
  std::unique_ptr<resource::TokenBucket> throttle_;
  std::unique_ptr<ThrottlePolicy> policy_;
  std::unique_ptr<sim::PeriodicTimer> tick_;
  std::unique_ptr<backup::HotBackupStream> snapshot_;
  std::unique_ptr<backup::DeltaShipper> shipper_;

  MigrationPhase phase_ = MigrationPhase::kNegotiate;
  SimTime phase_start_ = 0.0;
  SimTime freeze_time_ = 0.0;
  int inflight_chunks_ = 0;
  bool acquiring_ = false;
  bool snapshot_sent_end_ = false;
  int handover_grace_checks_ = 0;
  uint64_t source_digest_ = 0;
  bool finished_ = false;
  /// Resume negotiation (kSnapshotResume accepted).
  bool resuming_ = false;
  storage::Lsn resume_lsn_ = 0;
  uint64_t resume_key_ = 0;
  int retransmit_rounds_ = 0;

  // --- Codec pipeline state (inert when selector_ is null).
  /// Per-chunk adaptive codec choice; null when the stream is raw.
  std::unique_ptr<codec::CodecSelector> selector_;
  /// The chunk read ahead of its throttle tokens (codec streams only).
  struct PendingChunk {
    uint64_t seq = 0;
    uint32_t chunk_crc = 0;
    codec::EncodedChunk enc;
  };
  std::optional<PendingChunk> pending_chunk_;

  // Ends when the job is destroyed; async callbacks routed through
  // external resources (disk queues, CPU queues, freeze waiters) are
  // guarded by it, so cancellation can free the job while its I/O is
  // still in flight.
  sim::Lifetime lifetime_;

  MigrationReport report_;
};

/// Target-side state of one incoming migration: the staging tenant plus
/// handlers for chunks, deltas, and the handover. Created by the
/// controller on kMigrateRequest; destroyed after handover or abort.
class TargetSession {
 public:
  TargetSession(Cluster* cluster, uint64_t self_server,
                uint64_t source_server, const net::Message& request,
                const MigrationOptions& options);

  /// Sends kMigrateAccept (staging instance ready), kSnapshotResume
  /// (staging rebuilt from durably staged chunks of an earlier attempt)
  /// or kMigrateAbort (e.g., the tenant already exists here). Call once
  /// after construction.
  void ReplyToRequest();

  /// Takes a snapshot chunk's rows out of `message` instead of copying
  /// them.
  void HandleMessage(net::Message&& message);

  bool finished() const { return finished_; }
  uint64_t tenant_id() const { return tenant_id_; }
  Status status() const { return status_; }

  /// Fires whenever the session finishes outside a HandleMessage call
  /// (idle timeout, decision probe) so the owning controller can reap
  /// it. May fire more than once; reaping must be idempotent.
  void set_on_finished(sim::Callback<void()> cb) {
    on_finished_ = std::move(cb);
  }

 private:
  /// Tells the source `status`, then Discard(status).
  void Abort(const Status& status);
  /// The source flipped the directory: serve, and finish Ok.
  void Commit();
  void Finish(Status status);
  /// Deletes a staging instance this session created, but a *reused*
  /// live instance only loses the staged in-range rows (it serves the
  /// ranges it owns); then Finish(status).
  void Discard(Status status);
  /// NACK the first missing/corrupt seq, rate-limited so a burst of
  /// out-of-order chunks doesn't trigger a NACK storm.
  void MaybeNack();
  void SendSnapshotAck();
  /// Re-arms on every message; firing means the source went silent
  /// (crashed mid-stream) — discard the staging instance but keep the
  /// durably staged chunks for a future resume.
  void ArmIdleTimer();
  /// After sending the handover ack, the commit (or abort) message may
  /// be lost. The frontend directory is the decision record — the
  /// source updates it *before* sending commit — so the session polls
  /// it: directory == self means committed; persistently == source
  /// means the migration died and the staging copy self-destructs.
  void ArmDecisionProbe();

  Cluster* cluster_;
  uint64_t self_server_;
  uint64_t source_server_;
  uint64_t tenant_id_;
  MigrationOptions options_;
  net::TenantWireConfig wire_config_;
  DurableStore* store_ = nullptr;
  engine::TenantDb* staging_ = nullptr;
  /// The keys arriving (DESIGN.md §16). A partial range arriving where
  /// the tenant already serves other ranges *reuses* the live instance
  /// (created_staging_ == false), which an abort must never delete.
  uint64_t range_lo_ = 0;
  uint64_t range_hi_ = UINT64_MAX;
  bool created_staging_ = true;
  uint64_t rows_received_ = 0;
  bool finished_ = false;
  bool awaiting_decision_ = false;
  int decision_probes_ = 0;
  Status status_;
  sim::Callback<void()> on_finished_;

  /// Reassembly state: chunks must arrive in seq order with a valid
  /// CRC; anything else is NACKed and the source goes back to the gap.
  bool resumed_ = false;
  storage::Lsn snap_start_lsn_ = 0;
  uint64_t expected_seq_ = 0;
  bool end_seen_ = false;
  uint64_t total_chunks_ = 0;
  storage::Lsn final_lsn_ = 0;
  uint64_t last_nacked_seq_ = UINT64_MAX;
  int chunks_since_nack_ = 0;
  uint64_t idle_generation_ = 0;
  /// See MigrationJob::lifetime_.
  sim::Lifetime lifetime_;
};

}  // namespace slacker

#endif  // SLACKER_SLACKER_MIGRATION_H_
