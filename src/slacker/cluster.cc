#include "src/slacker/cluster.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/engine/checkpoint.h"
#include "src/obs/events.h"
#include "src/wal/recovery.h"

namespace slacker {
namespace {

/// Disk stream for crash-recovery reads and checkpoint writes —
/// sequential bulk I/O distinct from tenant traffic and migration
/// streams.
constexpr uint64_t kRecoveryStreamId = UINT64_MAX - 3;

}  // namespace

Server::Server(sim::Simulator* sim, uint64_t id, const ClusterOptions& options,
               Cluster* cluster)
    : id_(id),
      disk_(sim, options.disk, "disk-" + std::to_string(id)),
      cpu_(sim, options.cpu),
      shared_pool_(options.multitenancy == MultitenancyModel::kSharedProcess
                       ? std::make_unique<storage::BufferPool>(
                             storage::BufferPoolOptions{
                                 options.shared_buffer_bytes / (16 * kKiB)})
                       : nullptr),
      tenants_(sim, &disk_, &cpu_, shared_pool_.get()),
      controller_(std::make_unique<MigrationController>(cluster, id)),
      software_version_(options.software_version) {
  controller_->set_incoming_options(options.incoming_migration);
}

void Server::Shutdown() {
  up_ = false;
  controller_.reset();
}

void Server::Reboot(Cluster* cluster, const MigrationOptions& incoming) {
  controller_ = std::make_unique<MigrationController>(cluster, id_);
  controller_->set_incoming_options(incoming);
  up_ = true;
}

Cluster::Cluster(sim::Simulator* sim, const ClusterOptions& options)
    : sim_(sim), options_(options) {
  servers_.reserve(options.num_servers);
  for (int i = 0; i < options.num_servers; ++i) {
    servers_.push_back(
        std::make_unique<Server>(sim, static_cast<uint64_t>(i), options, this));
  }
  // Wire each server's monitor to probe outstanding client work for the
  // tenants it currently hosts, so a stalled server still reports
  // rising latency to the controller.
  for (auto& server : servers_) {
    Server* raw = server.get();
    raw->monitor()->SetOutstandingProbe([this, raw](SimTime now) {
      double worst = 0.0;
      for (uint64_t tenant : ranges_.TenantsOn(raw->id())) {
        auto it = pools_by_tenant_.find(tenant);
        if (it == pools_by_tenant_.end()) continue;
        for (workload::ClientPool* pool : it->second) {
          worst = std::max(worst, pool->OldestOutstandingAgeMs(now));
        }
      }
      return worst;
    });
  }
}

Cluster::~Cluster() = default;

void Cluster::InstallTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) {
    txn_latency_hist_ = nullptr;
    sla_violations_counter_ = nullptr;
    for (auto& server : servers_) {
      for (uint64_t tenant_id : server->tenants()->TenantIds()) {
        engine::TenantDb* db = server->tenants()->Get(tenant_id);
        if (db != nullptr) db->AttachObs(nullptr, nullptr);
      }
    }
    return;
  }
  obs::MetricRegistry* registry = tracer_->registry();
  txn_latency_hist_ = registry->FindOrCreateHistogram("txn_latency_ms");
  sla_violations_counter_ = registry->FindOrCreateCounter("sla_violations");
  for (auto& server : servers_) {
    // PublishMetrics sets it; registered here so it leads each server's
    // rows in the metrics CSV.
    registry->FindOrCreateGauge("disk_queue_depth",
                                "server=" + std::to_string(server->id()));
    for (uint64_t tenant_id : server->tenants()->TenantIds()) {
      AttachTenantObs(server->tenants()->Get(tenant_id));
    }
  }
}

void Cluster::AttachTenantObs(engine::TenantDb* db) {
  if (tracer_ == nullptr || db == nullptr) return;
  const std::string labels =
      "tenant=" + std::to_string(db->config().tenant_id);
  db->AttachObs(
      tracer_->registry()->FindOrCreateHistogram("op_latency_ms", labels),
      tracer_->registry()->FindOrCreateCounter("ops_executed", labels));
}

Server* Cluster::server(uint64_t id) {
  return id < servers_.size() ? servers_[id].get() : nullptr;
}

Result<engine::TenantDb*> Cluster::AddTenant(
    uint64_t server_id, const engine::TenantConfig& config, bool load) {
  Server* host = server(server_id);
  if (host == nullptr) return Status::NotFound("no such server");
  if (host->draining()) {
    return Status::FailedPrecondition("server " + std::to_string(server_id) +
                                      " is draining");
  }
  Result<engine::TenantDb*> db =
      host->tenants()->CreateTenant(config, load, /*frozen=*/false);
  if (!db.ok()) return db;
  auditor_.OnTenantPlaced(server_id, config.tenant_id, host->draining());
  AttachTenantObs(*db);
  SLACKER_RETURN_IF_ERROR(ranges_.RegisterTenant(config.tenant_id, server_id));
  auditor_.OnRangeCoverage(config.tenant_id,
                           ranges_.ValidateCoverage(config.tenant_id));
  return db;
}

Status Cluster::RemoveTenant(uint64_t tenant_id) {
  // A job in flight still reads the source instance.
  if (ControllerWithJob(tenant_id) != nullptr) {
    return Status::FailedPrecondition(
        "tenant " + std::to_string(tenant_id) + " is migrating");
  }
  // An instance exists exactly where a range is owned; a sharded
  // tenant holds several, so drop all.
  const std::vector<uint64_t> owners = ranges_.ServersOf(tenant_id);
  SLACKER_RETURN_IF_ERROR(ranges_.RemoveTenant(tenant_id));
  Status result = Status::Ok();
  for (uint64_t owner : owners) {
    const Status deleted = DeleteTenantOn(owner, tenant_id);
    if (!deleted.ok() && result.ok()) result = deleted;
  }
  return result;
}

Status Cluster::StartMigration(uint64_t tenant_id, uint64_t target_server,
                               const MigrationOptions& options,
                               MigrationJob::DoneCallback done) {
  // The job runs on the owner of what it moves.
  const range::KeyRange& key_range = options.range;
  Result<range::OwnedRange> owned =
      ranges_.RangeContaining(tenant_id, key_range.lo);
  SLACKER_RETURN_IF_ERROR(owned.status());
  if (key_range.IsFull()) {
    if (ranges_.IsSharded(tenant_id)) {
      // A whole-tenant job would move only one owner's ranges and leave
      // the directory naming a deleted instance.
      return Status::FailedPrecondition(
          "tenant " + std::to_string(tenant_id) +
          " is sharded across servers; move its ranges instead");
    }
  } else if (!(owned->range == key_range)) {
    return Status::InvalidArgument(
        "range is not a registered unit (SplitTenantRange first): " +
        key_range.ToString() + " vs " + owned->range.ToString());
  }
  const uint64_t source = owned->server;
  if (server(target_server) == nullptr) {
    return Status::NotFound("no such target server");
  }
  if (!server(source)->up()) {
    return Status::Unavailable("source server is down");
  }
  if (!server(target_server)->up()) {
    return Status::Unavailable("target server is down");
  }
  if (server(target_server)->draining()) {
    return Status::FailedPrecondition("target server is draining");
  }
  // One job per tenant at a time: a target holds one staging session
  // per tenant and would drop a second job's request.
  if (ControllerWithJob(tenant_id) != nullptr) {
    return Status::FailedPrecondition("tenant " + std::to_string(tenant_id) +
                                      " is already migrating");
  }
  return server(source)->controller()->StartMigration(
      tenant_id, target_server, options, std::move(done));
}

Status Cluster::SplitTenantRange(uint64_t tenant_id, uint64_t split_key) {
  SLACKER_RETURN_IF_ERROR(ranges_.Split(tenant_id, split_key));
  auditor_.OnRangeCoverage(tenant_id, ranges_.ValidateCoverage(tenant_id));
  return Status::Ok();
}

Status Cluster::MergeTenantRange(uint64_t tenant_id, uint64_t key) {
  SLACKER_RETURN_IF_ERROR(ranges_.MergeAt(tenant_id, key));
  auditor_.OnRangeCoverage(tenant_id, ranges_.ValidateCoverage(tenant_id));
  return Status::Ok();
}

MigrationController* Cluster::ControllerWithJob(uint64_t tenant_id) {
  // A job runs on the owner of its range, which need not be the home.
  for (uint64_t owner : ranges_.ServersOf(tenant_id)) {
    MigrationController* controller = server(owner)->controller();
    if (controller != nullptr && controller->ActiveJob(tenant_id) != nullptr) {
      return controller;
    }
  }
  return nullptr;
}

MigrationJob* Cluster::ActiveJob(uint64_t tenant_id) {
  MigrationController* controller = ControllerWithJob(tenant_id);
  return controller == nullptr ? nullptr : controller->ActiveJob(tenant_id);
}

Status Cluster::CancelMigration(uint64_t tenant_id,
                                const std::string& reason) {
  MigrationController* controller = ControllerWithJob(tenant_id);
  if (controller == nullptr) {
    return Status::NotFound("no active migration for tenant " +
                            std::to_string(tenant_id));
  }
  return controller->CancelMigration(tenant_id, reason);
}

engine::TenantDb* Cluster::Resolve(uint64_t tenant_id) {
  const Result<uint64_t> host = ranges_.Lookup(tenant_id);
  if (!host.ok()) return nullptr;
  return server(*host)->tenants()->Get(tenant_id);
}

engine::TenantDb* Cluster::ResolveForKey(uint64_t tenant_id, uint64_t key) {
  const Result<uint64_t> owner = ranges_.OwnerOf(tenant_id, key);
  if (!owner.ok()) return nullptr;
  auditor_.OnOpRouted(tenant_id, key, *owner, *owner);
  Server* host = server(*owner);
  if (host == nullptr || !host->up()) return nullptr;
  return host->tenants()->Get(tenant_id);
}

workload::ClientPool::LatencyObserver Cluster::MakeLatencyObserver() {
  return [this](uint64_t tenant_id, SimTime now, double latency_ms) {
    const Result<uint64_t> host = ranges_.Lookup(tenant_id);
    if (!host.ok()) return;
    server(*host)->monitor()->Record(now, latency_ms);
    if (tracer_ != nullptr) {
      if (txn_latency_hist_ != nullptr) txn_latency_hist_->Observe(latency_ms);
      if (sla_threshold_ms_ > 0.0 && latency_ms > sla_threshold_ms_) {
        if (sla_violations_counter_ != nullptr) sla_violations_counter_->Add();
        obs::SlaViolation violation;
        violation.tenant_id = tenant_id;
        violation.latency_ms = latency_ms;
        violation.threshold_ms = sla_threshold_ms_;
        obs::EmitSlaViolation(tracer_, violation);
      }
    }
  };
}

void Cluster::AttachClientPool(uint64_t tenant_id,
                               workload::ClientPool* pool) {
  pools_by_tenant_[tenant_id].push_back(pool);
}

engine::TenantDb* Cluster::TenantOn(uint64_t server_id, uint64_t tenant_id) {
  Server* host = server(server_id);
  return host == nullptr ? nullptr : host->tenants()->Get(tenant_id);
}

Result<engine::TenantDb*> Cluster::CreateTenantOn(
    uint64_t server_id, const engine::TenantConfig& config, bool load,
    bool frozen) {
  Server* host = server(server_id);
  if (host == nullptr) return Status::NotFound("no such server");
  if (host->draining()) {
    // Migration staging counts as gaining a tenant: an incoming
    // migration targeting a draining server is refused here, which the
    // TargetSession turns into a clean kMigrateAbort back to the
    // source (the supervisor then retries elsewhere).
    return Status::FailedPrecondition("server " + std::to_string(server_id) +
                                      " is draining");
  }
  Result<engine::TenantDb*> db =
      host->tenants()->CreateTenant(config, load, frozen);
  if (db.ok()) {
    auditor_.OnTenantPlaced(server_id, config.tenant_id, host->draining());
    AttachTenantObs(*db);
  }
  return db;
}

Status Cluster::DeleteTenantOn(uint64_t server_id, uint64_t tenant_id) {
  Server* host = server(server_id);
  if (host == nullptr) return Status::NotFound("no such server");
  // A deliberate delete removes the data directory: nothing of this
  // instance is recoverable afterwards. Only the separately staged
  // migration chunks (kept for resume) may outlive it.
  host->durable()->EraseCheckpoint(tenant_id);
  host->durable()->EraseCrashState(tenant_id);
  return host->tenants()->DeleteTenant(tenant_id);
}

void Cluster::CrashServer(uint64_t server_id) {
  Server* host = server(server_id);
  if (host == nullptr || !host->up()) return;
  SLACKER_LOG_WARN << "server " << server_id << " crashed";
  if (tracer_ != nullptr) {
    obs::FaultFired fault;
    fault.kind = "crash";
    fault.server_id = server_id;
    obs::EmitFaultFired(tracer_, fault);
  }
  DurableStore* durable = host->durable();
  for (uint64_t tenant_id : host->tenants()->TenantIds()) {
    engine::TenantDb* db = host->tenants()->Get(tenant_id);
    const Result<uint64_t> authority = ranges_.Lookup(tenant_id);
    if (authority.ok() && *authority == server_id) {
      // The binlog is the WAL — it was written synchronously to disk
      // and survives. The in-memory table does not.
      DurableTenantState state;
      state.config = db->config();
      state.log = std::move(*db->binlog());
      durable->SaveCrashState(tenant_id, std::move(state));
    } else {
      // Staging instance (or stale residue): its half-built table dies
      // with the process. Durably staged chunks remain for resume.
      durable->EraseCrashState(tenant_id);
    }
    db->FailInFlight(Status::Unavailable("server crashed"));
    (void)host->tenants()->DeleteTenant(tenant_id);
  }
  host->Shutdown();
}

void Cluster::RestartServer(uint64_t server_id, SimTime delay) {
  sim_->After(delay, [this, server_id] { RecoverServer(server_id); });
}

void Cluster::RecoverServer(uint64_t server_id) {
  Server* host = server(server_id);
  if (host == nullptr || host->up()) return;
  host->Reboot(this, options_.incoming_migration);
  if (tracer_ != nullptr) {
    obs::FaultFired fault;
    fault.kind = "restart";
    fault.server_id = server_id;
    obs::EmitFaultFired(tracer_, fault);
  }
  DurableStore* durable = host->durable();
  for (uint64_t tenant_id : durable->CrashedTenants()) {
    DurableTenantState* state = durable->CrashState(tenant_id);
    const Result<uint64_t> authority = ranges_.Lookup(tenant_id);
    if (!authority.ok() || *authority != server_id) {
      // Ownership moved while this server was down.
      durable->EraseCrashState(tenant_id);
      continue;
    }
    Result<engine::TenantDb*> created = host->tenants()->CreateTenant(
        state->config, /*load=*/false, /*frozen=*/true);
    if (!created.ok()) {
      SLACKER_LOG_ERROR << "tenant " << tenant_id
                        << " failed to reinstantiate after restart: "
                        << created.status().ToString();
      continue;
    }
    engine::TenantDb* db = *created;
    uint64_t recovery_bytes = 0;
    bool recovered = false;
    const engine::CheckpointImage* image = durable->Checkpoint(tenant_id);
    if (image != nullptr) {
      const Result<storage::Lsn> lsn =
          engine::RecoverFromCheckpoint(*image, state->log, db);
      if (lsn.ok()) {
        recovered = true;
        recovery_bytes =
            image->LogicalBytes(state->config.layout.record_bytes);
        if (state->log.last_lsn() > image->lsn) {
          recovery_bytes +=
              state->log.BytesInRange(image->lsn + 1, state->log.last_lsn());
        }
      } else {
        SLACKER_LOG_WARN << "tenant " << tenant_id
                         << " checkpoint unusable ("
                         << lsn.status().ToString()
                         << "); falling back to full replay";
      }
    }
    if (!recovered) {
      // Implicit LSN-0 checkpoint: the initial Load() image plus a full
      // log replay.
      db->Load();
      wal::ReplayBinlog(state->log, 1, db->mutable_table());
      // The implicit checkpoint is the initial load image: recovery
      // re-reads the whole base table plus the full log.
      recovery_bytes =
          state->config.layout.DataBytes() + state->log.total_bytes();
    }
    db->RestoreBinlog(std::move(state->log));
    durable->EraseCrashState(tenant_id);
    // Recovery reads the checkpoint + log suffix off disk; the tenant
    // stays frozen (queueing queries) until the scan completes.
    db->ChargeSequentialRead(std::max<uint64_t>(recovery_bytes, 1),
                             kRecoveryStreamId, [db] { db->Unfreeze(); });
  }
}

std::vector<uint64_t> Cluster::UpServerIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(servers_.size());
  for (size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i]->up()) ids.push_back(i);
  }
  return ids;
}

bool Cluster::ServerUp(uint64_t server_id) const {
  return server_id < servers_.size() && servers_[server_id]->up();
}

Status Cluster::SetDraining(uint64_t server_id, bool draining) {
  Server* host = server(server_id);
  if (host == nullptr) return Status::NotFound("no such server");
  if (host->draining() == draining) return Status::Ok();
  host->set_draining(draining);
  if (tracer_ != nullptr) {
    obs::ServerDrain drain;
    drain.server_id = server_id;
    drain.draining = draining;
    drain.tenants_remaining = host->tenants()->tenant_count();
    obs::EmitServerDrain(tracer_, drain);
  }
  return Status::Ok();
}

uint32_t Cluster::ServerVersion(uint64_t server_id) const {
  return server_id < servers_.size()
             ? servers_[server_id]->software_version()
             : 0;
}

Status Cluster::SetServerVersion(uint64_t server_id, uint32_t version) {
  Server* host = server(server_id);
  if (host == nullptr) return Status::NotFound("no such server");
  const uint32_t from = host->software_version();
  if (from == version) return Status::Ok();
  auditor_.OnServerVersionChange(server_id, from, version);
  host->set_software_version(version);
  if (tracer_ != nullptr) {
    obs::ServerVersionChange change;
    change.server_id = server_id;
    change.from_version = from;
    change.to_version = version;
    obs::EmitServerVersionChange(tracer_, change);
  }
  return Status::Ok();
}

void Cluster::SetPartitioned(uint64_t a, uint64_t b, bool partitioned) {
  const auto key = std::make_pair(std::min(a, b), std::max(a, b));
  if (partitioned) {
    partitions_.insert(key);
  } else {
    partitions_.erase(key);
  }
  if (tracer_ != nullptr) {
    obs::FaultFired fault;
    fault.kind = partitioned ? "partition" : "heal";
    fault.server_id = key.first;
    fault.has_peer = true;
    fault.peer = key.second;
    obs::EmitFaultFired(tracer_, fault);
  }
}

bool Cluster::IsPartitioned(uint64_t a, uint64_t b) const {
  return partitions_.count(std::make_pair(std::min(a, b), std::max(a, b))) > 0;
}

Status Cluster::CheckpointTenant(uint64_t tenant_id) {
  const Result<uint64_t> host_id = ranges_.Lookup(tenant_id);
  SLACKER_RETURN_IF_ERROR(host_id.status());
  Server* host = server(*host_id);
  if (host == nullptr || !host->up()) {
    return Status::Unavailable("host server is down");
  }
  engine::TenantDb* db = host->tenants()->Get(tenant_id);
  if (db == nullptr) {
    return Status::NotFound("tenant not instantiated on its host");
  }
  engine::CheckpointImage image = engine::TakeCheckpoint(*db);
  const uint64_t bytes =
      std::max<uint64_t>(image.LogicalBytes(db->config().layout.record_bytes),
                         1);
  host->durable()->SaveCheckpoint(std::move(image));
  // The checkpoint write competes with query traffic for the disk.
  db->ChargeSequentialWrite(bytes, kRecoveryStreamId, nullptr);
  return Status::Ok();
}

net::Channel* Cluster::ChannelBetween(uint64_t from, uint64_t to) {
  const auto key = std::make_pair(from, to);
  auto it = channels_.find(key);
  if (it != channels_.end()) return it->second.get();

  auto link = std::make_unique<resource::NetworkLink>(sim_, options_.link);
  auto channel = std::make_unique<net::Channel>(sim_, link.get());
  channel->OnMessage([this, from, to](net::Message&& message) {
    Server* receiver = server(to);
    // A crashed receiver or a cut link silently eats the message, just
    // like a real network.
    if (receiver == nullptr || !receiver->up() ||
        receiver->controller() == nullptr || IsPartitioned(from, to)) {
      if (message.type == net::MessageType::kSnapshotChunk) {
        auditor_.OnChunkDropped(message.tenant_id, message.payload_bytes,
                                message.wire_payload_bytes());
      }
      return;
    }
    receiver->controller()->HandleMessage(from, std::move(message));
  });
  channel->OnError([](const Status& status) {
    SLACKER_LOG_ERROR << "channel error: " << status.ToString();
  });
  channel->OnDrop([this](const net::Channel::DropInfo& info) {
    // Chunks lost to injected faults (filtered datagrams, bit rot that
    // fails the frame decode) count against the conservation ledger.
    if (info.type == net::MessageType::kSnapshotChunk) {
      auditor_.OnChunkDropped(info.tenant_id, info.payload_bytes,
                              info.wire_payload_bytes);
    }
  });
  net::Channel* raw = channel.get();
  links_[key] = std::move(link);
  channels_[key] = std::move(channel);
  return raw;
}

void Cluster::SendMessage(uint64_t from_server, uint64_t to_server,
                          const net::Message& message) {
  auditor_.OnClockSample(sim_->Now());
  Server* sender = server(from_server);
  if (sender == nullptr || !sender->up()) {
    if (message.type == net::MessageType::kSnapshotChunk) {
      auditor_.OnChunkDropped(message.tenant_id, message.payload_bytes,
                              message.wire_payload_bytes());
    }
    return;
  }
  ChannelBetween(from_server, to_server)->Send(message);
}

}  // namespace slacker
