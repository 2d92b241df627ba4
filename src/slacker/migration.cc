#include "src/slacker/migration.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/codec/delta.h"
#include "src/common/invariant.h"
#include "src/common/logging.h"
#include "src/engine/checkpoint.h"
#include "src/obs/events.h"
#include "src/slacker/invariant_auditor.h"
#include "src/wal/recovery.h"

namespace slacker {
namespace {

/// Disk stream id for migration bulk I/O — distinct from every tenant
/// id so sequential chunks keep their head position between each other
/// but pay a seek after any interleaved tenant I/O.
constexpr uint64_t kMigrationStreamId = UINT64_MAX - 1;
/// Target-side staging writes (chunk ingest + resume re-read).
constexpr uint64_t kStagingStreamId = UINT64_MAX - 2;

/// The frame of data that ships unencoded (never serialized).
codec::FrameHeader RawFrame(uint64_t logical_bytes) {
  return {.logical_bytes = logical_bytes, .encoded_bytes = logical_bytes};
}

/// Runs `send` once `source` has spent `cpu_seconds` encoding (at once
/// when nothing was encoded), unless `owner` (the job) is gone.
template <typename Send>
void AfterEncodeCpu(engine::TenantDb* source, const sim::Lifetime& owner,
                    double cpu_seconds, Send send) {
  if (cpu_seconds <= 0.0) {
    send();
    return;
  }
  // Compression burns source cores; the data leaves only after the
  // encode job finishes.
  source->ChargeCpu(cpu_seconds, owner.Guard(std::move(send)));
}

net::TenantWireConfig WireConfigFrom(const engine::TenantConfig& config) {
  net::TenantWireConfig wire;
  wire.page_bytes = config.layout.page_bytes;
  wire.record_bytes = config.layout.record_bytes;
  wire.record_count = config.layout.record_count;
  wire.buffer_pool_bytes = config.buffer_pool_bytes;
  wire.value_seed = config.value_seed;
  wire.cpu_per_op = config.cpu_per_op;
  wire.commit_latency = config.commit_latency;
  return wire;
}

engine::TenantConfig ConfigFromWire(uint64_t tenant_id,
                                    const net::TenantWireConfig& wire) {
  engine::TenantConfig config;
  config.tenant_id = tenant_id;
  config.layout.page_bytes = wire.page_bytes;
  config.layout.record_bytes = wire.record_bytes;
  config.layout.record_count = wire.record_count;
  config.buffer_pool_bytes = wire.buffer_pool_bytes;
  config.value_seed = wire.value_seed;
  config.cpu_per_op = wire.cpu_per_op;
  config.commit_latency = wire.commit_latency;
  return config;
}

/// Applies snapshot rows with LSN-newest-wins semantics (fuzzy chunks
/// may be older than an already-applied version — never regress).
void ApplyRows(const std::vector<storage::Record>& rows,
               storage::BTree* table) {
  for (const storage::Record& row : rows) {
    const storage::Record* existing = table->Get(row.key);
    if (existing != nullptr && existing->lsn >= row.lsn) continue;
    table->Put(row);
  }
}

}  // namespace

double MigrationReport::AverageRateMbps() const {
  const SimTime duration = DurationSeconds();
  if (duration <= 0.0) return 0.0;
  return MBpsFromBytesPerSec(
      static_cast<double>(snapshot_bytes + delta_bytes) / duration);
}

double MigrationReport::CompressionRatio() const {
  const uint64_t wire = snapshot_wire_bytes + delta_wire_bytes;
  if (wire == 0) return 1.0;
  return static_cast<double>(snapshot_bytes + delta_bytes) /
         static_cast<double>(wire);
}

MigrationJob::MigrationJob(MigrationContext* ctx, uint64_t tenant_id,
                           uint64_t source_server, uint64_t target_server,
                           const MigrationOptions& options, DoneCallback done)
    : ctx_(ctx),
      sim_(ctx->simulator()),
      tenant_id_(tenant_id),
      source_server_(source_server),
      target_server_(target_server),
      options_(options),
      done_(std::move(done)),
      auditor_(ctx->auditor()),
      tracer_(ctx->tracer()) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    track_ = obs::MigrationTrack(tenant_id);
  } else {
    tracer_ = nullptr;
  }
  // Range jobs never resume: staged-chunk bookkeeping is per-tenant
  // and a resumed range could interleave with another range's staging.
  if (options_.range_scoped) options_.allow_resume = false;
  report_.tenant_id = tenant_id;
  report_.source_server = source_server;
  report_.target_server = target_server;
  report_.mode = options.mode;
  report_.range_scoped = options_.range_scoped;
  report_.range = options_.range;
}

Status MigrationJob::Start() {
  SLACKER_RETURN_IF_ERROR(options_.Validate());
  if (source_server_ == target_server_) {
    return Status::InvalidArgument("source and target are the same server");
  }
  source_db_ = ctx_->TenantOn(source_server_, tenant_id_);
  if (source_db_ == nullptr) {
    return Status::NotFound("tenant " + std::to_string(tenant_id_) +
                            " not on source server");
  }
  if (options_.range_scoped) {
    // The moved unit must be an exact directory entry owned by the
    // source — the handover flips precisely this entry.
    const Result<range::OwnedRange> owned =
        ctx_->directory()->RangeContaining(tenant_id_, options_.range.lo);
    if (!owned.ok()) return owned.status();
    if (!(owned->range == options_.range)) {
      return Status::FailedPrecondition(
          "range " + options_.range.ToString() +
          " is not a directory unit (found " + owned->range.ToString() + ")");
    }
    if (owned->server != source_server_) {
      return Status::FailedPrecondition(
          "range " + options_.range.ToString() + " not owned by source");
    }
  }
  // The engine holds one freeze at a time (crash recovery, another
  // handover); this job's own freeze must not nest inside it.
  if (source_db_->frozen()) {
    return Status::FailedPrecondition(
        "source already has a freeze in progress");
  }

  policy_ = MakeThrottlePolicy(options_, ctx_->MonitorOn(source_server_),
                               ctx_->MonitorOn(target_server_));
  report_.throttle_name = policy_->name();
  resource::TokenBucketOptions bucket_options;
  bucket_options.rate_bytes_per_sec =
      BytesPerSecFromMBps(policy_->InitialRateMbps());
  // Burst = one chunk: a long-idle pipe resumes with a single chunk
  // instead of dumping several back-to-back onto the disk (which would
  // monopolize the spindle for ~100 ms and spike query latency).
  bucket_options.burst_bytes = options_.backup.chunk_bytes;
  throttle_ = std::make_unique<resource::TokenBucket>(sim_, bucket_options);
  if (options_.codec.mode != codec::CodecMode::kRaw) {
    selector_ = std::make_unique<codec::CodecSelector>(options_.codec);
  }

  report_.start_time = sim_->Now();
  phase_start_ = sim_->Now();

  if (tracer_ != nullptr) {
    const std::string labels = "tenant=" + std::to_string(tenant_id_);
    obs::MetricRegistry* registry = tracer_->registry();
    rate_gauge_ = registry->FindOrCreateGauge("migration_rate_mbps", labels);
    snapshot_bytes_counter_ =
        registry->FindOrCreateCounter("migration_snapshot_bytes", labels);
    delta_bytes_counter_ =
        registry->FindOrCreateCounter("migration_delta_bytes", labels);
    chunks_sent_counter_ =
        registry->FindOrCreateCounter("migration_chunks_sent", labels);
    if (options_.codec.mode != codec::CodecMode::kRaw) {
      // Registered only when a codec is active so default (raw) runs
      // add no metric rows and the golden CSV exports stay byte-stable.
      codec_logical_bytes_counter_ =
          registry->FindOrCreateCounter("codec_logical_bytes", labels);
      codec_wire_bytes_counter_ =
          registry->FindOrCreateCounter("codec_wire_bytes", labels);
      codec_cpu_us_counter_ =
          registry->FindOrCreateCounter("codec_cpu_us", labels);
      codec_ratio_gauge_ =
          registry->FindOrCreateGauge("codec_compression_ratio", labels);
    }
    phase_span_ = obs::TraceSpan(tracer_, track_,
                                 MigrationPhaseName(MigrationPhase::kNegotiate),
                                 "phase");
    phase_span_.AddNote("mode", options_.mode == MigrationMode::kLive
                                    ? "live"
                                    : "stop-and-copy");
    phase_span_.AddNote("policy", policy_->name());
  }

  net::Message request;
  request.type = net::MessageType::kMigrateRequest;
  request.tenant_id = tenant_id_;
  request.target_server = target_server_;
  request.config = WireConfigFrom(source_db_->config());
  request.resume = options_.allow_resume;
  request.range_scoped = options_.range_scoped;
  request.range_lo = options_.range.lo;
  request.range_hi = options_.range.hi;
  // Versioned sources advertise their capabilities; the target echoes
  // its own in the accept and the pair downgrades to the common
  // feature set (OnAccepted). Version-0 sources skip the extension so
  // the legacy wire stays byte-identical.
  const uint32_t source_version = ctx_->SoftwareVersionOn(source_server_);
  if (source_version != 0) {
    request.negotiation.software_version = source_version;
    request.negotiation.feature_mask =
        net::FeatureMaskForVersion(source_version);
  }
  ctx_->SendMessage(source_server_, target_server_, request);
  if (auditor_ != nullptr) auditor_->BeginMigration(tenant_id_);
  if (options_.timeout_seconds > 0.0) {
    ArmWatchdog(options_.timeout_seconds);
  }
  SLACKER_LOG_INFO << "migration of tenant " << tenant_id_ << " to server "
                   << target_server_ << " requested (" << policy_->name()
                   << ")";
  return Status::Ok();
}

void MigrationJob::ArmWatchdog(SimTime delay) {
  sim_->After(delay, lifetime_.Guard([this] {
    if (finished_) return;
    if (phase_ == MigrationPhase::kHandover &&
        ++handover_grace_checks_ < 15) {
      // Mid-handover: give the sub-second exchange a short grace and
      // check again. If it stays stuck (a lost ack), escalate below.
      ArmWatchdog(1.0);
      return;
    }
    SLACKER_LOG_WARN << "migration of tenant " << tenant_id_
                     << " timed out; aborting";
    if (phase_ == MigrationPhase::kHandover) {
      ForceAbort(Status::Aborted("watchdog timeout during handover"));
    } else {
      (void)Cancel("watchdog timeout");
    }
  }));
}

void MigrationJob::ForceAbort(Status status) {
  if (finished_) return;
  // No commit decision exists while the job is unfinished (OnHandoverAck
  // decides and finishes atomically in the event loop), so reverting to
  // the source is safe: the directory was never switched.
  net::Message abort;
  abort.type = net::MessageType::kMigrateAbort;
  abort.tenant_id = tenant_id_;
  abort.error = status.ToString();
  ctx_->SendMessage(source_server_, target_server_, abort);
  if (source_db_ != nullptr && source_db_->frozen()) {
    source_db_->Unfreeze();
  }
  Finish(std::move(status));
}

Status MigrationJob::Cancel(const std::string& reason) {
  if (finished_) {
    return Status::FailedPrecondition("migration already finished");
  }
  if (phase_ == MigrationPhase::kHandover) {
    // The cancel lost the race to handover: the freeze window is
    // already sub-second and the authority switch may have been
    // decided. Let the handover finish — the target ends up
    // authoritative. The distinct code lets callers (upgrade
    // orchestrator, operators) tell "too late, migration will land"
    // from an actual precondition failure.
    return Status::TooLateToCancel(
        "handover in progress; target will become authoritative");
  }
  net::Message abort;
  abort.type = net::MessageType::kMigrateAbort;
  abort.tenant_id = tenant_id_;
  abort.error = reason;
  ctx_->SendMessage(source_server_, target_server_, abort);
  // Stop-and-copy froze the tenant up front; give it back.
  if (source_db_ != nullptr && source_db_->frozen()) {
    source_db_->Unfreeze();
  }
  Finish(Status::Aborted("cancelled: " + reason));
  return Status::Ok();
}

void MigrationJob::EnterPhase(MigrationPhase phase) {
  const SimTime now = sim_->Now();
  if (auditor_ != nullptr) {
    auditor_->OnClockSample(now);
    auditor_->OnPhaseTransition(tenant_id_, phase_, phase);
  }
  const SimTime elapsed = now - phase_start_;
  switch (phase_) {
    case MigrationPhase::kNegotiate:
      report_.negotiate_seconds += elapsed;
      break;
    case MigrationPhase::kSnapshot:
      report_.snapshot_seconds += elapsed;
      break;
    case MigrationPhase::kPrepare:
      report_.prepare_seconds += elapsed;
      break;
    case MigrationPhase::kDelta:
      report_.delta_seconds += elapsed;
      break;
    case MigrationPhase::kHandover:
      report_.handover_seconds += elapsed;
      break;
    case MigrationPhase::kDone:
    case MigrationPhase::kFailed:
      break;
  }
  if (tracer_ != nullptr) {
    obs::PhaseTransition transition;
    transition.tenant_id = tenant_id_;
    transition.source_server = source_server_;
    transition.target_server = target_server_;
    transition.from = MigrationPhaseName(phase_);
    transition.to = MigrationPhaseName(phase);
    obs::EmitPhaseTransition(tracer_, transition);
    phase_span_.End();
    if (phase != MigrationPhase::kDone && phase != MigrationPhase::kFailed) {
      phase_span_ =
          obs::TraceSpan(tracer_, track_, MigrationPhaseName(phase), "phase");
    }
  }
  phase_ = phase;
  phase_start_ = now;
}

void MigrationJob::StartController() {
  tick_ = std::make_unique<sim::PeriodicTimer>(
      sim_, options_.controller_tick, [this](SimTime now) { OnTick(now); });
  tick_->Start();
  report_.throttle_series.Add(sim_->Now(),
                              MBpsFromBytesPerSec(throttle_->rate()));
}

void MigrationJob::OnTick(SimTime now) {
  if (finished_) return;
  if (options_.overload_abort_ms > 0.0 &&
      phase_ == MigrationPhase::kSnapshot) {
    // Graceful degradation: a target that cannot absorb the stream
    // without sustained SLA violation gets the migration taken off its
    // back — the supervisor retries later instead of grinding at the
    // throttle floor.
    control::LatencyMonitor* target_monitor = ctx_->MonitorOn(target_server_);
    const double target_ms =
        target_monitor == nullptr ? 0.0 : target_monitor->WindowAverageMs(now);
    if (target_ms > options_.overload_abort_ms) {
      if (++overload_strikes_ >= options_.overload_abort_ticks) {
        SLACKER_LOG_WARN << "migration of tenant " << tenant_id_
                         << " aborting: target latency " << target_ms
                         << " ms above " << options_.overload_abort_ms
                         << " ms for " << overload_strikes_ << " ticks";
        ForceAbort(Status::TargetOverloaded(
            "target latency over SLA during snapshot"));
        return;
      }
    } else {
      overload_strikes_ = 0;
    }
  }
  const double rate_mbps = policy_->OnTick(now, options_.controller_tick);
  if (auditor_ != nullptr) {
    auditor_->OnClockSample(now);
    double min_mbps = 0.0;
    double max_mbps = 0.0;
    ThrottleBounds(&min_mbps, &max_mbps);
    auditor_->OnThrottleRate(tenant_id_, rate_mbps, min_mbps, max_mbps);
  }
  throttle_->SetRate(BytesPerSecFromMBps(rate_mbps));
  report_.throttle_series.Add(now, rate_mbps);
  double latency_ms = 0.0;
  bool have_latency = false;
  if (auto* pid = dynamic_cast<PidThrottlePolicy*>(policy_.get())) {
    latency_ms = pid->last_latency_ms();
    have_latency = true;
  } else if (auto* adaptive =
                 dynamic_cast<AdaptivePidThrottlePolicy*>(policy_.get())) {
    latency_ms = adaptive->last_latency_ms();
    have_latency = true;
  }
  if (have_latency) {
    report_.controller_latency_series.Add(now, latency_ms);
  }
  if (tracer_ != nullptr) {
    if (rate_gauge_ != nullptr) rate_gauge_->Set(rate_mbps);
    const ThrottlePolicy::PidTerms terms = policy_->last_terms();
    obs::ThrottleUpdate update;
    update.tenant_id = tenant_id_;
    update.policy = policy_->name();
    update.rate_mbps = rate_mbps;
    update.latency_ms = latency_ms;
    update.has_pid_terms = terms.valid;
    update.setpoint_ms = terms.setpoint_ms;
    update.error_ms = terms.error_ms;
    update.p = terms.p;
    update.i = terms.i;
    update.d = terms.d;
    obs::EmitThrottleUpdate(tracer_, update);
  }
}

void MigrationJob::HandleMessage(const net::Message& message) {
  if (finished_) return;
  switch (message.type) {
    case net::MessageType::kMigrateAccept: {
      if (phase_ != MigrationPhase::kNegotiate) return;
      OnAccepted(/*resume_offer=*/false, message);
      return;
    }
    case net::MessageType::kSnapshotResume: {
      if (phase_ != MigrationPhase::kNegotiate) return;
      OnAccepted(/*resume_offer=*/true, message);
      return;
    }
    case net::MessageType::kSnapshotNack: {
      OnSnapshotNack(message);
      return;
    }
    case net::MessageType::kSnapshotAck: {
      if (phase_ != MigrationPhase::kSnapshot) return;
      if (options_.mode == MigrationMode::kStopAndCopy) {
        if (!options_.file_level_copy) {
          // mysqldump-style copy pays a re-import on the target before
          // it can serve (§2.3.1 — "very slow ... due to the overhead
          // of reimporting the data").
          const SimTime import =
              options_.import_seconds_per_mib *
              (static_cast<double>(report_.snapshot_bytes) / kMiB);
          engine::TenantDb* staging =
              ctx_->TenantOn(target_server_, tenant_id_);
          if (staging != nullptr) staging->ChargeCpu(import, nullptr);
          EnterPhase(MigrationPhase::kPrepare);
          sim_->After(import, lifetime_.Guard([this] { BeginHandover(); }));
        } else {
          BeginHandover();
        }
      } else {
        BeginPrepare();
      }
      return;
    }
    case net::MessageType::kDeltaAck: {
      if (phase_ != MigrationPhase::kDelta) return;
      delta_round_span_.End();
      shipper_->MarkApplied(message.lsn);
      ShipNextDelta();
      return;
    }
    case net::MessageType::kHandoverAck:
      OnHandoverAck(message);
      return;
    case net::MessageType::kMigrateAbort:
      Finish(Status::Aborted("target aborted: " + message.error));
      return;
    case net::MessageType::kMigrateRequest:
    case net::MessageType::kSnapshotBegin:
    case net::MessageType::kSnapshotChunk:
    case net::MessageType::kSnapshotEnd:
    case net::MessageType::kDeltaBatch:
    case net::MessageType::kHandoverRequest:
    case net::MessageType::kHandoverCommit:
      // Target-bound traffic; a source job can only ignore it. Spelled
      // out (no default:) so -Wswitch flags new message types.
      SLACKER_LOG_WARN << "source job ignoring message type "
                       << static_cast<int>(message.type);
      return;
  }
}

void MigrationJob::OnAccepted(bool resume_offer, const net::Message& message) {
  NegotiateCapabilities(message);
  if (resume_offer && options_.allow_resume &&
      options_.mode == MigrationMode::kLive &&
      source_db_->binlog()->first_lsn() <= message.lsn + 1) {
    // The target still holds durably staged chunks from an earlier
    // attempt, and our binlog still covers that attempt's snapshot LSN:
    // skip the staged key range and ship deltas from the old LSN. The
    // fuzzy-snapshot invariant is unchanged — staged rows are old, but
    // the delta rounds replay everything since resume_lsn_ on top.
    resuming_ = true;
    resume_lsn_ = message.lsn;
    resume_key_ = message.resume_key;
    report_.resumed_bytes = message.payload_bytes;
    SLACKER_LOG_INFO << "migration of tenant " << tenant_id_ << " resuming: "
                     << message.payload_bytes
                     << " bytes already staged at target";
  }
  if (options_.mode == MigrationMode::kStopAndCopy) {
    // Stop-and-copy freezes the tenant for the entire copy (§2.3.1).
    freeze_time_ = sim_->Now();
    freeze_span_ = obs::TraceSpan(tracer_, track_, "freeze", "handover");
    source_db_->Freeze(lifetime_.Guard([this] { BeginSnapshot(); }));
  } else {
    BeginSnapshot();
  }
}

void MigrationJob::NegotiateCapabilities(const net::Message& message) {
  const uint32_t source_version = ctx_->SoftwareVersionOn(source_server_);
  const uint32_t target_version = message.negotiation.software_version;
  // Legacy on either side (version 0): no handshake, requested mode
  // stands — exactly the pre-versioning behavior.
  if (source_version == 0 || target_version == 0) return;
  const codec::CodecMode requested = options_.codec.mode;
  const codec::CodecMode negotiated = net::NegotiatedCodecMode(
      requested, source_version, net::FeatureMaskForVersion(source_version),
      target_version, message.negotiation.feature_mask);
  if (tracer_ != nullptr) {
    obs::CodecNegotiated event;
    event.tenant_id = tenant_id_;
    event.source_version = source_version;
    event.target_version = target_version;
    event.requested = codec::CodecModeName(requested);
    event.negotiated = codec::CodecModeName(negotiated);
    obs::EmitCodecNegotiated(tracer_, event);
  }
  if (negotiated == requested) return;
  SLACKER_LOG_INFO << "migration of tenant " << tenant_id_
                   << " downgraded codec " << codec::CodecModeName(requested)
                   << " -> " << codec::CodecModeName(negotiated)
                   << " (source v" << source_version << ", target v"
                   << target_version << ")";
  options_.codec.mode = negotiated;
  // The selector was built for the requested mode in Start(); rebuild
  // it for the common feature set, or drop it on a raw fallback, which
  // makes the pumps stream raw.
  if (negotiated == codec::CodecMode::kRaw) {
    selector_.reset();
  } else {
    selector_ = std::make_unique<codec::CodecSelector>(options_.codec);
  }
}

void MigrationJob::BeginSnapshot() {
  EnterPhase(MigrationPhase::kSnapshot);
  // A job scans and ships only its range (the whole key space unless
  // range-scoped; range jobs never resume); the delta filter keeps
  // other ranges' writes out of the stream (their jobs own them).
  snapshot_ = std::make_unique<backup::HotBackupStream>(
      source_db_, options_.backup,
      resuming_ ? resume_key_ : options_.range.lo, options_.range.hi);
  const storage::Lsn snap_lsn =
      resuming_ ? resume_lsn_ : snapshot_->start_lsn();
  shipper_ = std::make_unique<backup::DeltaShipper>(source_db_->binlog(),
                                                    snap_lsn);
  if (options_.range_scoped) {
    shipper_->RestrictToKeys(options_.range.lo, options_.range.hi);
  }
  if (tracer_ != nullptr) {
    const std::string labels = "tenant=" + std::to_string(tenant_id_);
    shipper_->AttachObs(
        tracer_->registry()->FindOrCreateCounter("delta_rounds_shipped",
                                                 labels),
        tracer_->registry()->FindOrCreateCounter("delta_log_bytes", labels));
  }
  // Keep the delta range readable even if a retention policy purges the
  // source binlog mid-migration.
  binlog_pin_ = source_db_->PinBinlog(snap_lsn + 1);
  StartController();

  net::Message begin;
  begin.type = net::MessageType::kSnapshotBegin;
  begin.tenant_id = tenant_id_;
  begin.lsn = snap_lsn;
  begin.resume = resuming_;
  begin.resume_key = resume_key_;
  ctx_->SendMessage(source_server_, target_server_, begin);

  PumpSnapshot();
}

void MigrationJob::PumpSnapshot() {
  if (finished_ || phase_ != MigrationPhase::kSnapshot) return;
  if (snapshot_->Done() && !pending_chunk_.has_value()) {
    OnSnapshotDrained();
    return;
  }
  if (acquiring_ || inflight_chunks_ >= options_.max_inflight_chunks) return;
  // The one raw-versus-codec decision is when the chunk is read. A codec
  // meters wire bytes, which exist only once the chunk is encoded, so it
  // reads first. A raw stream acquires the nominal chunk size and reads
  // when the tokens arrive, so each chunk captures the rows as of its
  // grant.
  uint64_t tokens = options_.backup.chunk_bytes;
  if (selector_ != nullptr) {
    if (!pending_chunk_.has_value()) ProducePendingChunk();
    tokens = std::max<uint64_t>(pending_chunk_->enc.frame.encoded_bytes, 1);
  }
  acquiring_ = true;
  throttle_->Acquire(tokens, lifetime_.Guard([this] {
    acquiring_ = false;
    if (finished_ || phase_ != MigrationPhase::kSnapshot) return;
    if (selector_ == nullptr && !snapshot_->Done()) ProducePendingChunk();
    if (!pending_chunk_.has_value()) {
      // Drained, or a NACK rewound the stream while the tokens were in
      // flight: the grant is sunk and the pump restarts from the cursor.
      PumpSnapshot();
      return;
    }
    PendingChunk pending = std::move(*pending_chunk_);
    pending_chunk_.reset();
    ++inflight_chunks_;
    const codec::FrameHeader& frame = pending.enc.frame;
    report_.snapshot_bytes += frame.logical_bytes;
    report_.snapshot_wire_bytes += frame.encoded_bytes;
    CountChunk(frame, pending.enc.cpu_seconds);
    const uint64_t read_bytes = std::max<uint64_t>(frame.logical_bytes, 1);
    source_db_->ChargeSequentialRead(
        read_bytes, kMigrationStreamId,
        lifetime_.Guard([this, pending = std::move(pending)]() mutable {
          const double cpu_seconds = pending.enc.cpu_seconds;
          auto send = [this, pending = std::move(pending)]() mutable {
            net::Message msg;
            msg.type = net::MessageType::kSnapshotChunk;
            msg.tenant_id = tenant_id_;
            msg.chunk_seq = pending.seq;
            msg.payload_bytes = pending.enc.frame.logical_bytes;
            msg.chunk_crc = pending.chunk_crc;
            msg.frame = pending.enc.frame;
            msg.rows = std::move(pending.enc.rows);
            msg.removed_keys = std::move(pending.enc.removed_keys);
            ctx_->SendMessage(source_server_, target_server_, msg);
            if (auditor_ != nullptr) {
              auditor_->OnChunkSent(tenant_id_, msg.payload_bytes,
                                    msg.wire_payload_bytes());
            }
            if (tracer_ != nullptr) {
              if (snapshot_bytes_counter_ != nullptr) {
                snapshot_bytes_counter_->Add(msg.payload_bytes);
              }
              if (chunks_sent_counter_ != nullptr) chunks_sent_counter_->Add();
              obs::SnapshotChunkSent sent;
              sent.tenant_id = tenant_id_;
              sent.seq = msg.chunk_seq;
              sent.bytes = msg.payload_bytes;
              obs::EmitSnapshotChunkSent(tracer_, sent);
              EmitCodecChunk(msg.chunk_seq, msg.frame,
                             pending.enc.cpu_seconds);
            }
            --inflight_chunks_;
            PumpSnapshot();
          };
          AfterEncodeCpu(source_db_, lifetime_, cpu_seconds, std::move(send));
        }));
    // Keep acquiring tokens for the next chunk while this one is being
    // read — the throttle, not the read completion, paces the stream.
    PumpSnapshot();
  }));
}

codec::SelectorInputs MigrationJob::SelectorInputsFor(
    uint64_t logical_bytes) const {
  codec::SelectorInputs inputs;
  inputs.throttle_bytes_per_sec = throttle_->rate();
  if (resource::CpuModel* cpu = ctx_->CpuOn(source_server_)) {
    inputs.total_cores = cpu->cores();
    inputs.busy_cores = cpu->busy_cores();
  }
  inputs.logical_bytes = logical_bytes;
  return inputs;
}

void MigrationJob::ProducePendingChunk() {
  backup::HotBackupStream::Chunk chunk = snapshot_->NextChunk();
  PendingChunk pending;
  pending.seq = chunk.seq;
  pending.chunk_crc = backup::ChunkCrc(chunk.rows);
  if (selector_ == nullptr) {
    pending.enc.frame = RawFrame(chunk.logical_bytes);
    pending.enc.rows = std::move(chunk.rows);
  } else {
    codec::SelectorInputs inputs = SelectorInputsFor(chunk.logical_bytes);
    const auto base_it = chunk_cache_.find(chunk.seq);
    inputs.has_delta_base = base_it != chunk_cache_.end() &&
                            delta_blocked_.count(chunk.seq) == 0;
    const codec::Codec choice = selector_->Choose(inputs);
    const std::vector<storage::Record>* base_rows =
        inputs.has_delta_base ? &base_it->second.rows : nullptr;
    pending.enc = backup::EncodeChunk(chunk, choice, options_.codec,
                                      source_db_->config().layout.record_bytes,
                                      base_rows);
    // Remember this transmission as the delta base for a go-back-N
    // resend: the target stages the same rows when the chunk arrives
    // intact but out of order.
    CachedChunk cached;
    cached.crc = pending.chunk_crc;
    cached.rows = std::move(chunk.rows);
    chunk_cache_[chunk.seq] = std::move(cached);
    while (chunk_cache_.size() >
           static_cast<size_t>(options_.codec.max_cached_chunks)) {
      chunk_cache_.erase(chunk_cache_.begin());
    }
  }
  pending_chunk_ = std::move(pending);
}

void MigrationJob::CountChunk(const codec::FrameHeader& frame,
                              double cpu_seconds) {
  report_.codec_cpu_seconds += cpu_seconds;
  switch (frame.codec) {
    case codec::Codec::kRaw:
      ++report_.chunks_raw;
      break;
    case codec::Codec::kLz:
      ++report_.chunks_lz;
      selector_->ObserveRatio(
          static_cast<double>(frame.logical_bytes) /
          static_cast<double>(std::max<uint64_t>(frame.encoded_bytes, 1)));
      break;
    case codec::Codec::kDelta:
      ++report_.chunks_delta;
      break;
  }
}

void MigrationJob::EmitCodecChunk(uint64_t seq,
                                  const codec::FrameHeader& frame,
                                  double cpu_seconds) {
  // Raw streams emit no codec rows, so their exports carry none.
  if (tracer_ == nullptr || selector_ == nullptr) return;
  obs::CodecChunkEncoded encoded;
  encoded.tenant_id = tenant_id_;
  encoded.seq = seq;
  encoded.codec = codec::CodecName(frame.codec);
  encoded.logical_bytes = frame.logical_bytes;
  encoded.wire_bytes = frame.encoded_bytes;
  encoded.cpu_ms = cpu_seconds * 1e3;
  obs::EmitCodecChunkEncoded(tracer_, encoded);
  if (codec_logical_bytes_counter_ != nullptr) {
    codec_logical_bytes_counter_->Add(frame.logical_bytes);
  }
  if (codec_wire_bytes_counter_ != nullptr) {
    codec_wire_bytes_counter_->Add(frame.encoded_bytes);
  }
  if (codec_cpu_us_counter_ != nullptr) {
    // Whole microseconds: a chunk's encode CPU is often under 2 ms.
    codec_cpu_us_counter_->Add(
        static_cast<uint64_t>(std::llround(cpu_seconds * 1e6)));
  }
  if (codec_ratio_gauge_ != nullptr) {
    codec_ratio_gauge_->Set(report_.CompressionRatio());
  }
}

void MigrationJob::OnSnapshotDrained() {
  if (inflight_chunks_ > 0 || snapshot_sent_end_) return;
  snapshot_sent_end_ = true;
  net::Message end;
  end.type = net::MessageType::kSnapshotEnd;
  end.tenant_id = tenant_id_;
  end.lsn = source_db_->last_lsn();
  // How many in-order chunks the target must hold before acking.
  end.chunk_seq = snapshot_->next_seq();
  ctx_->SendMessage(source_server_, target_server_, end);
}

void MigrationJob::OnSnapshotNack(const net::Message& message) {
  if (finished_ || phase_ != MigrationPhase::kSnapshot ||
      snapshot_ == nullptr) {
    return;
  }
  if (message.chunk_seq >= snapshot_->next_seq()) return;
  if (++retransmit_rounds_ > options_.max_chunk_retransmits) {
    // A path that keeps corrupting or dropping chunks never converges;
    // surface it as corruption so the supervisor retries from scratch.
    ForceAbort(
        Status::Corruption("snapshot chunk retransmit budget exhausted"));
    return;
  }
  SLACKER_LOG_WARN << "tenant " << tenant_id_ << " snapshot NACK at chunk "
                   << message.chunk_seq << "; rewinding from "
                   << snapshot_->next_seq();
  report_.chunks_retransmitted += snapshot_->next_seq() - message.chunk_seq;
  if (tracer_ != nullptr) {
    obs::SnapshotNack nack;
    nack.tenant_id = tenant_id_;
    nack.rewind_to_seq = message.chunk_seq;
    nack.chunks_resent = snapshot_->next_seq() - message.chunk_seq;
    obs::EmitSnapshotNack(tracer_, nack);
  }
  // Go-back-N: rewind the cursor to the gap and restream from there.
  // The NACKed seq is exactly the chunk the target holds no staged base
  // for (later chunks were staged when they arrived intact), so only
  // this seq must resend raw; the rest may ship as deltas.
  delta_blocked_.insert(message.chunk_seq);
  // A chunk read ahead of its tokens was never sent: its rows must not
  // stay cached as a delta base the target never staged.
  if (pending_chunk_.has_value()) {
    chunk_cache_.erase(pending_chunk_->seq);
    pending_chunk_.reset();
  }
  snapshot_->RewindTo(message.chunk_seq);
  snapshot_sent_end_ = false;
  PumpSnapshot();
}

void MigrationJob::BeginPrepare() {
  EnterPhase(MigrationPhase::kPrepare);
  // XtraBackup --prepare: crash recovery against the copied tablespace
  // on the target. The log window itself converges through delta
  // rounds; prepare contributes its fixed readiness cost, busying a
  // target core meanwhile.
  engine::TenantDb* staging = ctx_->TenantOn(target_server_, tenant_id_);
  if (staging != nullptr) {
    staging->ChargeCpu(options_.prepare.base_seconds, nullptr);
  }
  sim_->After(options_.prepare.base_seconds,
              lifetime_.Guard([this] { BeginDeltaRounds(); }));
}

void MigrationJob::BeginDeltaRounds() {
  EnterPhase(MigrationPhase::kDelta);
  ShipNextDelta();
}

void MigrationJob::ShipNextDelta() {
  if (finished_ || phase_ != MigrationPhase::kDelta) return;
  const uint64_t pending = shipper_->PendingBytes();
  if (pending <= options_.delta_handover_bytes ||
      shipper_->rounds_shipped() >= options_.max_delta_rounds) {
    BeginHandover();
    return;
  }
  // The read-versus-tokens decision of PumpSnapshot: a codec reads and
  // encodes the round first and meters its wire bytes; a raw stream
  // acquires the pending bytes and reads on the grant, so writes that
  // land during the wait join this round instead of the next.
  uint64_t tokens = pending;
  std::optional<PendingRound> round;
  if (selector_ != nullptr) {
    round = ReadDeltaRound();
    if (!round.has_value()) return;
    tokens = std::max<uint64_t>(round->frame.encoded_bytes, 1);
  }
  auto on_grant = [this, round = std::move(round)]() mutable {
    if (finished_ || phase_ != MigrationPhase::kDelta) return;
    if (selector_ == nullptr) round = ReadDeltaRound();
    if (round.has_value()) SendDeltaRound(std::move(*round));
  };
  throttle_->Acquire(tokens, lifetime_.Guard(std::move(on_grant)));
}

std::optional<MigrationJob::PendingRound> MigrationJob::ReadDeltaRound() {
  Result<backup::DeltaRound> read = shipper_->ReadRound();
  if (!read.ok()) {
    Finish(read.status());
    return std::nullopt;
  }
  if (read->empty()) {
    BeginHandover();
    return std::nullopt;
  }
  PendingRound pending;
  pending.round = std::move(*read);
  const backup::DeltaRound& round = pending.round;
  if (selector_ == nullptr) {
    pending.frame = RawFrame(round.bytes);
  } else {
    const codec::EncodedChunk enc = backup::EncodeRound(
        round, selector_->Choose(SelectorInputsFor(round.bytes)),
        options_.codec);
    pending.frame = enc.frame;
    pending.cpu_seconds = enc.cpu_seconds;
  }
  report_.delta_bytes += round.bytes;
  report_.delta_wire_bytes += pending.frame.encoded_bytes;
  CountChunk(pending.frame, pending.cpu_seconds);
  ++report_.delta_rounds;
  if (tracer_ != nullptr) {
    if (delta_bytes_counter_ != nullptr) {
      delta_bytes_counter_->Add(round.bytes);
    }
    obs::DeltaRoundShipped shipped;
    shipped.tenant_id = tenant_id_;
    shipped.round = report_.delta_rounds;
    shipped.bytes = round.bytes;
    shipped.remaining_bytes = shipper_->PendingBytes();
    obs::EmitDeltaRoundShipped(tracer_, shipped);
    delta_round_span_ = obs::TraceSpan(
        tracer_, track_,
        "delta round " + std::to_string(report_.delta_rounds), "delta");
    delta_round_span_.AddArg("bytes", static_cast<double>(round.bytes));
    delta_round_span_.AddArg("remaining_bytes",
                             static_cast<double>(shipper_->PendingBytes()));
    EmitCodecChunk(static_cast<uint64_t>(report_.delta_rounds), pending.frame,
                   pending.cpu_seconds);
  }
  return pending;
}

void MigrationJob::SendDeltaRound(PendingRound pending) {
  const uint64_t read_bytes = std::max<uint64_t>(pending.round.bytes, 1);
  source_db_->ChargeSequentialRead(
      read_bytes, kMigrationStreamId,
      lifetime_.Guard([this, pending = std::move(pending)]() mutable {
        const double cpu_seconds = pending.cpu_seconds;
        auto send = [this, pending = std::move(pending)]() mutable {
          net::Message msg;
          msg.type = net::MessageType::kDeltaBatch;
          msg.tenant_id = tenant_id_;
          msg.lsn = pending.round.to;
          msg.payload_bytes = pending.round.bytes;
          msg.frame = pending.frame;
          msg.log_records = std::move(pending.round.records);
          ctx_->SendMessage(source_server_, target_server_, msg);
        };
        AfterEncodeCpu(source_db_, lifetime_, cpu_seconds, std::move(send));
      }));
}

void MigrationJob::BeginHandover() {
  EnterPhase(MigrationPhase::kHandover);
  if (options_.mode == MigrationMode::kStopAndCopy) {
    // Already frozen since the start; go straight to the final message.
    OnSourceDrained();
    return;
  }
  freeze_time_ = sim_->Now();
  freeze_span_ = obs::TraceSpan(tracer_, track_, "freeze", "handover");
  // Only the moving range freezes; a range job's tenant keeps serving
  // every other range — the fluid-migration point (DESIGN.md §16).
  source_db_->Freeze(lifetime_.Guard([this] { OnSourceDrained(); }),
                     options_.range.lo, options_.range.hi);
}

void MigrationJob::OnSourceDrained() {
  if (finished_) return;
  backup::DeltaRound final_round;
  if (shipper_ != nullptr) {
    Result<backup::DeltaRound> round = shipper_->ReadRound();
    if (!round.ok()) {
      Finish(round.status());
      return;
    }
    final_round = std::move(*round);
  }
  source_digest_ = source_db_->StateDigest(options_.range.lo,
                                           options_.range.hi);
  report_.delta_bytes += final_round.bytes;
  // The final round always ships unencoded (handover bypasses both the
  // throttle and the codec), so wire bytes equal logical bytes.
  report_.delta_wire_bytes += final_round.bytes;

  const uint64_t read_bytes = std::max<uint64_t>(final_round.bytes, 1);
  // The final delta is tiny and the tenant is frozen: it ships at full
  // speed, bypassing the throttle (the freeze window must stay short).
  source_db_->ChargeSequentialRead(
      read_bytes, kMigrationStreamId,
      lifetime_.Guard([this, final_round = std::move(final_round)]() mutable {
        net::Message msg;
        msg.type = net::MessageType::kHandoverRequest;
        msg.tenant_id = tenant_id_;
        msg.lsn = std::max(final_round.to, source_db_->last_lsn());
        msg.digest = source_digest_;
        msg.payload_bytes = final_round.bytes;
        msg.log_records = std::move(final_round.records);
        ctx_->SendMessage(source_server_, target_server_, msg);
      }));
}

void MigrationJob::OnHandoverAck(const net::Message& message) {
  report_.digest_match = message.digest == source_digest_;
  if (!report_.digest_match) {
    // The staging replica diverged (e.g., data was lost in transit).
    // NEVER hand authority to a divergent copy: discard the target,
    // resume service at the source, and fail the migration loudly.
    SLACKER_LOG_ERROR << "handover digest mismatch for tenant " << tenant_id_
                      << "; aborting handover";
    net::Message abort;
    abort.type = net::MessageType::kMigrateAbort;
    abort.tenant_id = tenant_id_;
    abort.error = "handover digest mismatch";
    ctx_->SendMessage(source_server_, target_server_, abort);
    source_db_->Unfreeze();
    Finish(Status::Corruption("handover digest mismatch"));
    return;
  }
  if (options_.range_scoped) {
    // The decision record for a range job is its range entry (flipped
    // strictly before the commit message, like the whole-tenant move).
    range::RangeDirectory* ranges = ctx_->directory();
    const Status moved =
        ranges->MoveRange(tenant_id_, options_.range, target_server_);
    if (!moved.ok()) {
      source_db_->Unfreeze();
      Finish(moved);
      return;
    }
    net::Message commit;
    commit.type = net::MessageType::kHandoverCommit;
    commit.tenant_id = tenant_id_;
    ctx_->SendMessage(source_server_, target_server_, commit);
    report_.downtime_ms = MsFromSeconds(sim_->Now() - freeze_time_);
    freeze_span_.AddArg("downtime_ms", report_.downtime_ms);
    freeze_span_.End();
    // Ops stranded behind the range freeze bounce; clients re-resolve
    // by key and retry at the new owner. The other ranges keep serving.
    source_db_->FailQueued();
    source_db_->Unfreeze();
    // The handed-over rows now live at the target; drop the source's
    // copy of just this unit.
    source_db_->EraseRangeRows(options_.range.lo, options_.range.hi);
    const std::vector<uint64_t> owners = ranges->ServersOf(tenant_id_);
    const bool source_still_owns =
        std::find(owners.begin(), owners.end(), source_server_) !=
        owners.end();
    if (!source_still_owns) {
      // Last range left this server: retire the now-empty instance.
      const Status deleted = ctx_->DeleteTenantOn(source_server_, tenant_id_);
      if (!deleted.ok()) {
        SLACKER_LOG_WARN << "delete of drained source copy for tenant "
                         << tenant_id_ << " failed: " << deleted.ToString();
      }
      source_db_ = nullptr;
    }
    Finish(Status::Ok());
    return;
  }
  // A split but unsharded tenant moves whole: every range goes along.
  const Status dir_status =
      ctx_->directory()->MoveTenant(tenant_id_, target_server_);
  if (!dir_status.ok()) {
    Finish(dir_status);
    return;
  }
  // Digests agree: commit — the target unfreezes and serves.
  net::Message commit;
  commit.type = net::MessageType::kHandoverCommit;
  commit.tenant_id = tenant_id_;
  ctx_->SendMessage(source_server_, target_server_, commit);
  report_.downtime_ms = MsFromSeconds(sim_->Now() - freeze_time_);
  freeze_span_.AddArg("downtime_ms", report_.downtime_ms);
  freeze_span_.End();
  // Queries stranded behind the source's read lock bounce to the new
  // authoritative replica (clients re-resolve and retry).
  source_db_->FailQueued();
  const Status deleted = ctx_->DeleteTenantOn(source_server_, tenant_id_);
  if (!deleted.ok()) {
    // Authority already moved to the target; a stale source copy is
    // garbage, not a correctness problem, but worth surfacing.
    SLACKER_LOG_WARN << "delete of migrated source copy for tenant "
                     << tenant_id_ << " failed: " << deleted.ToString();
  }
  source_db_ = nullptr;
  Finish(Status::Ok());
}

void MigrationJob::Finish(Status status) {
  if (finished_) return;
  finished_ = true;
  if (binlog_pin_ != 0 && source_db_ != nullptr) {
    source_db_->UnpinBinlog(binlog_pin_);
    binlog_pin_ = 0;
  }
  EnterPhase(status.ok() ? MigrationPhase::kDone : MigrationPhase::kFailed);
  if (auditor_ != nullptr) {
    // The snapshot ack orders after every chunk on the FIFO channel, so
    // at a successful finish the pipe is drained and the conservation
    // equation must balance exactly. Failed attempts may die with
    // chunks still in flight; their ledger closes unchecked.
    if (status.ok()) auditor_->CheckChunkConservation(tenant_id_);
    auditor_->EndMigration(tenant_id_);
  }
  // Safety-close any spans still open on an abort path.
  if (!status.ok()) freeze_span_.AddNote("status", status.ToString());
  freeze_span_.End();
  delta_round_span_.End();
  phase_span_.End();
  if (rate_gauge_ != nullptr) rate_gauge_->Set(0.0);
  if (tick_ != nullptr) tick_->Stop();
  if (throttle_ != nullptr) throttle_->SetRate(0.0);
  report_.status = status;
  report_.end_time = sim_->Now();
  SLACKER_LOG_INFO << "migration of tenant " << tenant_id_ << " finished: "
                   << status.ToString() << " in "
                   << report_.DurationSeconds() << "s";
  // Deferred, so the owning controller can erase this job from inside
  // the callback.
  sim_->Post(std::move(done_), report_);
}

double MigrationJob::current_rate_mbps() const {
  return throttle_ == nullptr ? 0.0 : MBpsFromBytesPerSec(throttle_->rate());
}

void MigrationJob::ThrottleBounds(double* min_mbps, double* max_mbps) const {
  switch (options_.throttle) {
    case ThrottleKind::kFixed:
      *min_mbps = options_.fixed_rate_mbps;
      *max_mbps = options_.fixed_rate_mbps;
      return;
    case ThrottleKind::kPid:
    case ThrottleKind::kAdaptivePid:
      // The adaptive variant rescales gains, not the actuator clamp:
      // both forms emit within the base PidConfig's output range.
      *min_mbps = options_.pid.output_min;
      *max_mbps = options_.pid.output_max;
      return;
  }
  *min_mbps = 0.0;
  *max_mbps = options_.pid.output_max;
}

TargetSession::TargetSession(MigrationContext* ctx, uint64_t self_server,
                             uint64_t source_server,
                             const net::Message& request,
                             const MigrationOptions& options)
    : ctx_(ctx),
      auditor_(ctx->auditor()),
      self_server_(self_server),
      source_server_(source_server),
      tenant_id_(request.tenant_id),
      options_(options),
      wire_config_(request.config),
      store_(ctx->DurableStoreOn(self_server)),
      range_scoped_(request.range_scoped),
      range_lo_(request.range_lo),
      range_hi_(request.range_hi) {
  if (range_scoped_) {
    // Range sessions never stage durably (resume is per-tenant, and a
    // partially merged instance must not become a crash checkpoint).
    store_ = nullptr;
    // A tenant already serving other ranges here absorbs this one into
    // its live instance; only a first-range arrival stages fresh (and
    // frozen, like a whole-tenant migration).
    engine::TenantDb* existing = ctx_->TenantOn(self_server_, tenant_id_);
    if (existing != nullptr) {
      staging_ = existing;
      created_staging_ = false;
      ArmIdleTimer();
      return;
    }
  }
  const engine::TenantConfig config =
      ConfigFromWire(request.tenant_id, request.config);
  Result<engine::TenantDb*> staging =
      ctx_->CreateTenantOn(self_server_, config, /*load=*/false,
                           /*frozen=*/true);
  if (!staging.ok()) {
    status_ = staging.status();
    return;
  }
  staging_ = *staging;
  if (options_.allow_resume && request.resume && store_ != nullptr) {
    const StagedSnapshot* staged = store_->Staged(tenant_id_);
    if (staged != nullptr && staged->config == wire_config_ &&
        !staged->rows.empty()) {
      // An earlier attempt durably staged part of the snapshot here.
      // Rebuild the staging table from it and offer the source a resume
      // point so it skips the keys below resume_key.
      ApplyRows(staged->rows, staging_->mutable_table());
      rows_received_ = staged->rows.size();
      snap_start_lsn_ = staged->start_lsn;
      resumed_ = true;
      if (staged->bytes_staged > 0) {
        // Re-reading the staged chunks off the local disk is cheap
        // compared to restreaming, but not free.
        staging_->ChargeSequentialRead(staged->bytes_staged,
                                       kStagingStreamId, nullptr);
      }
      SLACKER_LOG_INFO << "tenant " << tenant_id_ << " staging rebuilt from "
                       << staged->bytes_staged << " durably staged bytes";
    }
  }
  ArmIdleTimer();
}

void TargetSession::ReplyToRequest() {
  if (staging_ == nullptr) {
    Abort(status_);
    return;
  }
  net::Message accept;
  accept.tenant_id = tenant_id_;
  if (resumed_) {
    const StagedSnapshot* staged = store_->Staged(tenant_id_);
    accept.type = net::MessageType::kSnapshotResume;
    accept.lsn = snap_start_lsn_;
    accept.resume = true;
    accept.resume_key = staged->resume_key;
    accept.payload_bytes = staged->bytes_staged;
  } else {
    accept.type = net::MessageType::kMigrateAccept;
  }
  // Echo our capabilities so the source can downgrade to the common
  // feature set; legacy (v0) targets skip the extension.
  const uint32_t self_version = ctx_->SoftwareVersionOn(self_server_);
  if (self_version != 0) {
    accept.negotiation.software_version = self_version;
    accept.negotiation.feature_mask =
        net::FeatureMaskForVersion(self_version);
  }
  ctx_->SendMessage(self_server_, source_server_, accept);
}

void TargetSession::DiscardStaging() {
  if (staging_ == nullptr) return;
  if (range_scoped_ && !created_staging_) {
    // The instance serves other ranges this server owns — keep it and
    // shed only the rows this aborted range staged into it.
    staging_->EraseRangeRows(range_lo_, range_hi_);
  } else {
    // Best-effort cleanup of a never-authoritative staging instance;
    // it may already be gone after a crash-restart, so NotFound is fine.
    (void)ctx_->DeleteTenantOn(self_server_, tenant_id_);
  }
  staging_ = nullptr;
}

void TargetSession::Abort(const Status& status) {
  status_ = status;
  DiscardStaging();
  net::Message abort;
  abort.type = net::MessageType::kMigrateAbort;
  abort.tenant_id = tenant_id_;
  abort.error = status.ToString();
  ctx_->SendMessage(self_server_, source_server_, abort);
  MarkFinished();
}

void TargetSession::MarkFinished() {
  finished_ = true;
  if (on_finished_) on_finished_();
}

void TargetSession::MaybeNack() {
  // Re-NACK the same gap only after several more arrivals: with
  // go-back-N the source resends everything from the gap, so each
  // out-of-order chunk in between must not trigger its own NACK.
  if (last_nacked_seq_ == expected_seq_ && ++chunks_since_nack_ < 8) return;
  net::Message nack;
  nack.type = net::MessageType::kSnapshotNack;
  nack.tenant_id = tenant_id_;
  nack.chunk_seq = expected_seq_;
  ctx_->SendMessage(self_server_, source_server_, nack);
  ++chunks_nacked_;
  last_nacked_seq_ = expected_seq_;
  chunks_since_nack_ = 0;
}

void TargetSession::SendSnapshotAck() {
  net::Message ack;
  ack.type = net::MessageType::kSnapshotAck;
  ack.tenant_id = tenant_id_;
  ack.lsn = final_lsn_;
  ctx_->SendMessage(self_server_, source_server_, ack);
}

void TargetSession::ArmIdleTimer() {
  if (options_.session_idle_timeout <= 0.0) return;
  const uint64_t generation = ++idle_generation_;
  ctx_->simulator()->After(
      options_.session_idle_timeout,
      lifetime_.Guard([this, generation] {
        if (finished_ || awaiting_decision_) return;
        if (generation != idle_generation_) return;  // Re-armed since.
        SLACKER_LOG_WARN << "migration session for tenant " << tenant_id_
                         << " idle for " << options_.session_idle_timeout
                         << "s; discarding staging instance";
        status_ = Status::Aborted("migration source went silent");
        DiscardStaging();
        // Staged chunks stay in the durable store: a retried migration
        // resumes from them.
        MarkFinished();
      }));
}

void TargetSession::ArmDecisionProbe() {
  ctx_->simulator()->After(1.0, lifetime_.Guard([this] {
    if (finished_ || !awaiting_decision_) return;
    // The decision record is the entry of the session's range (0 for
    // a whole job) — the source flips it before commit.
    const Result<uint64_t> authority =
        ctx_->directory()->OwnerOf(tenant_id_, range_lo_);
    if (authority.ok() && *authority == self_server_) {
      // The source committed (directory switches strictly before the
      // commit message is sent); the message was merely lost.
      SLACKER_LOG_WARN << "handover commit for tenant " << tenant_id_
                       << " inferred from directory";
      awaiting_decision_ = false;
      if (created_staging_) staging_->Unfreeze();
      status_ = Status::Ok();
      if (store_ != nullptr) store_->EraseStaged(tenant_id_);
      MarkFinished();
      return;
    }
    if (++decision_probes_ >= 30) {
      // The source never switched authority: the migration is dead.
      SLACKER_LOG_WARN << "handover for tenant " << tenant_id_
                       << " abandoned; discarding staging replica";
      awaiting_decision_ = false;
      status_ = Status::Aborted("handover abandoned");
      DiscardStaging();
      MarkFinished();
      return;
    }
    ArmDecisionProbe();
  }));
}

void TargetSession::HandleMessage(const net::Message& message) {
  if (finished_) {
    // Finished but not yet reaped: the stream is dead; account chunks
    // that still trickle in so the source-side ledger stays balanced.
    if (message.type == net::MessageType::kSnapshotChunk &&
        auditor_ != nullptr) {
      auditor_->OnChunkDropped(tenant_id_, message.payload_bytes,
                               message.wire_payload_bytes());
    }
    return;
  }
  ArmIdleTimer();
  switch (message.type) {
    case net::MessageType::kSnapshotBegin: {
      if (resumed_ && message.lsn != snap_start_lsn_) {
        // The source could not honour our resume offer (its binlog no
        // longer reaches back to the staged LSN) and is streaming a
        // fresh snapshot: drop the rebuilt rows.
        SLACKER_LOG_WARN << "tenant " << tenant_id_
                         << " resume declined by source; restaging";
        staging_->mutable_table()->Clear();
        rows_received_ = 0;
        resumed_ = false;
        if (store_ != nullptr) store_->EraseStaged(tenant_id_);
      }
      snap_start_lsn_ = message.lsn;
      expected_seq_ = 0;
      end_seen_ = false;
      total_chunks_ = 0;
      last_nacked_seq_ = UINT64_MAX;
      chunks_since_nack_ = 0;
      if (store_ != nullptr) {
        store_->EnsureStaged(tenant_id_, source_server_, wire_config_,
                             snap_start_lsn_);
      }
      return;
    }
    case net::MessageType::kSnapshotChunk: {
      const uint64_t wire_payload = message.wire_payload_bytes();
      // Decode before the seq-order logic: a delta frame reconstructs
      // against its durably staged base; a base miss is handled exactly
      // like corruption (discard + NACK → raw resend converges).
      std::vector<storage::Record> rows = message.rows;
      bool decodable = true;
      if (message.frame.codec == codec::Codec::kDelta) {
        const StagedChunkBase* base =
            store_ == nullptr
                ? nullptr
                : store_->ChunkBase(tenant_id_, message.chunk_seq);
        if (base == nullptr || base->crc != message.frame.base_crc) {
          decodable = false;
        } else {
          rows = codec::ApplyRowDelta(base->rows, message.rows,
                                      message.removed_keys);
        }
      }
      const bool crc_ok =
          decodable && codec::ChunkCrc(rows) == message.chunk_crc &&
          codec::VerifyPayloadCrc(message.frame, rows,
                                  wire_config_.record_bytes);
      if (message.chunk_seq < expected_seq_) {
        // Duplicate (go-back-N overlap): already applied once.
        if (auditor_ != nullptr) {
          auditor_->OnChunkDiscarded(tenant_id_, message.payload_bytes,
                                     wire_payload);
        }
        return;
      }
      if (message.chunk_seq > expected_seq_ || !crc_ok) {
        if (crc_ok && store_ != nullptr) {
          // Intact but out of order: durably stage the reconstructed
          // rows as a delta base — the go-back-N retransmission of this
          // seq may then ship as a delta against them.
          store_->StageChunkBase(
              tenant_id_, message.chunk_seq, message.chunk_crc, rows,
              static_cast<size_t>(options_.codec.max_cached_chunks));
        }
        // Gap or corruption: ask the source to go back to the first
        // chunk we cannot accept.
        if (auditor_ != nullptr) {
          auditor_->OnChunkDiscarded(tenant_id_, message.payload_bytes,
                                     wire_payload);
        }
        MaybeNack();
        return;
      }
      last_nacked_seq_ = UINT64_MAX;
      chunks_since_nack_ = 0;
      expected_seq_ = message.chunk_seq + 1;
      if (store_ != nullptr) store_->EraseChunkBase(tenant_id_, message.chunk_seq);
      if (auditor_ != nullptr) {
        auditor_->OnChunkApplied(tenant_id_, message.payload_bytes,
                                 wire_payload);
      }
      // Decompression / delta reconstruction busies a target core.
      const double decode_cost =
          codec::DecodeCpuSeconds(message.frame, options_.codec);
      if (decode_cost > 0.0) staging_->ChargeCpu(decode_cost, nullptr);
      ApplyRows(rows, staging_->mutable_table());
      rows_received_ += rows.size();
      const uint64_t payload = std::max<uint64_t>(message.payload_bytes, 1);
      staging_->ChargeSequentialWrite(
          payload, kStagingStreamId,
          lifetime_.Guard([this, rows = std::move(rows),
                           payload = message.payload_bytes] {
            if (store_ == nullptr || rows.empty()) return;
            // Durable only once the staging write hits disk: chunks
            // still in the write queue at a crash are lost, and a
            // resumed attempt re-requests them.
            store_->EnsureStaged(tenant_id_, source_server_, wire_config_,
                                 snap_start_lsn_);
            store_->AppendStagedRows(tenant_id_, rows,
                                     rows.back().key + 1, payload);
          }));
      if (end_seen_ && expected_seq_ >= total_chunks_) SendSnapshotAck();
      return;
    }
    case net::MessageType::kSnapshotEnd: {
      end_seen_ = true;
      total_chunks_ = message.chunk_seq;
      final_lsn_ = message.lsn;
      if (expected_seq_ >= total_chunks_) {
        SendSnapshotAck();
      } else {
        // The stream ended with a hole; NACK unconditionally — there
        // are no further arrivals to trip the rate limiter.
        last_nacked_seq_ = UINT64_MAX;
        MaybeNack();
      }
      return;
    }
    case net::MessageType::kDeltaBatch: {
      if (message.frame.codec != codec::Codec::kRaw) {
        // The frame rode a CRC-checked envelope; re-derive the round's
        // payload from the log records and hold it to the frame's
        // payload CRC. A mismatch is in-memory corruption.
        const std::vector<storage::Record> images =
            backup::RowImagesFromLog(message.log_records);
        const uint64_t per_image =
            images.empty() ? 0
                           : message.payload_bytes /
                                 static_cast<uint64_t>(images.size());
        SLACKER_CHECK(
            codec::VerifyPayloadCrc(message.frame, images, per_image),
            "delta round payload crc mismatch");
      }
      // Apply cost scales with the round size, busying a target core;
      // the ack is sent once application completes. Compressed rounds
      // additionally pay the decode cost before replay.
      const SimTime apply_cost =
          options_.delta_apply_seconds_per_mib *
              (static_cast<double>(message.payload_bytes) / kMiB) +
          codec::DecodeCpuSeconds(message.frame, options_.codec);
      auto records = message.log_records;
      const storage::Lsn to = message.lsn;
      staging_->ChargeCpu(
          apply_cost,
          lifetime_.Guard([this, records = std::move(records), to] {
            if (finished_ || staging_ == nullptr) return;
            // Records arrived through a CRC-checked frame decode; a replay
            // failure here means in-memory corruption, not a lost message.
            const Status replayed =
                wal::Replay(records, staging_->mutable_table());
            SLACKER_CHECK(replayed.ok(), replayed.ToString());
            net::Message ack;
            ack.type = net::MessageType::kDeltaAck;
            ack.tenant_id = tenant_id_;
            ack.lsn = to;
            ctx_->SendMessage(self_server_, source_server_, ack);
          }));
      return;
    }
    case net::MessageType::kMigrateAbort: {
      // Source cancelled: discard the staging instance quietly (no
      // echo — the source job has already finished). The durably
      // staged chunks are kept for a future resume.
      status_ = Status::Aborted(message.error);
      DiscardStaging();
      MarkFinished();
      return;
    }
    case net::MessageType::kHandoverRequest: {
      // Same reasoning as the delta path: the final log suffix passed
      // the frame CRC, so a replay failure is engine-state corruption.
      const Status replayed =
          wal::Replay(message.log_records, staging_->mutable_table());
      SLACKER_CHECK(replayed.ok(), replayed.ToString());
      staging_->SyncCursorsAfterIngest(message.lsn);
      if (store_ != nullptr) {
        // The staging data directory is complete on disk at this point;
        // record it as this tenant's recovery image so a crash in the
        // commit window restores the migrated state, not the stale
        // pre-load baseline.
        store_->SaveCheckpoint(engine::TakeCheckpoint(*staging_));
      }
      // Stay frozen: authority only transfers once the source confirms
      // the digests agree (kHandoverCommit). A range session digests
      // just its unit — the instance may hold other live ranges.
      net::Message ack;
      ack.type = net::MessageType::kHandoverAck;
      ack.tenant_id = tenant_id_;
      ack.digest = staging_->StateDigest(range_lo_, range_hi_);
      ctx_->SendMessage(self_server_, source_server_, ack);
      awaiting_decision_ = true;
      ArmDecisionProbe();
      return;
    }
    case net::MessageType::kHandoverCommit: {
      awaiting_decision_ = false;
      // A reused live instance was never frozen — it kept serving its
      // other ranges throughout; only a first-range staging unfreezes.
      if (created_staging_) staging_->Unfreeze();
      status_ = Status::Ok();
      // This replica is authoritative now; the staged-chunk record has
      // served its purpose.
      if (store_ != nullptr) store_->EraseStaged(tenant_id_);
      MarkFinished();
      return;
    }
    case net::MessageType::kMigrateRequest:
    case net::MessageType::kMigrateAccept:
    case net::MessageType::kSnapshotAck:
    case net::MessageType::kDeltaAck:
    case net::MessageType::kHandoverAck:
    case net::MessageType::kSnapshotResume:
    case net::MessageType::kSnapshotNack:
      // Source-bound traffic; a target session can only ignore it.
      // Spelled out (no default:) so -Wswitch flags new message types.
      SLACKER_LOG_WARN << "target session ignoring message type "
                       << static_cast<int>(message.type);
      return;
  }
}

}  // namespace slacker
