#include "src/slacker/migration_controller.h"

#include <utility>

#include "src/common/logging.h"
#include "src/slacker/cluster.h"

namespace slacker {

MigrationController::MigrationController(Cluster* cluster,
                                         uint64_t server_id)
    : cluster_(cluster), server_id_(server_id) {}

Status MigrationController::StartMigration(uint64_t tenant_id,
                                           uint64_t target_server,
                                           const MigrationOptions& options,
                                           MigrationJob::DoneCallback done) {
  auto job = std::make_unique<MigrationJob>(
      cluster_, tenant_id, server_id_, target_server, options,
      [this, tenant_id, done = std::move(done)](const MigrationReport& report) {
        // The job has fully finished; drop it, then notify.
        jobs_.erase(tenant_id);
        if (done) done(report);
      });
  SLACKER_RETURN_IF_ERROR(job->Start());
  jobs_[tenant_id] = std::move(job);
  return Status::Ok();
}

Status MigrationController::CancelMigration(uint64_t tenant_id,
                                            const std::string& reason) {
  auto it = jobs_.find(tenant_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no active migration for tenant " +
                            std::to_string(tenant_id));
  }
  return it->second->Cancel(reason);
}

void MigrationController::HandleMessage(uint64_t from_server,
                                        net::Message&& message) {
  if (message.type == net::MessageType::kMigrateRequest) {
    if (sessions_.count(message.tenant_id) > 0) {
      SLACKER_LOG_WARN << "duplicate migrate request for tenant "
                       << message.tenant_id;
      return;
    }
    auto session = std::make_unique<TargetSession>(
        cluster_, server_id_, from_server, message, incoming_options_);
    TargetSession* raw = session.get();
    const uint64_t tenant_id = message.tenant_id;
    // Sessions can finish outside HandleMessage (idle timeout, decision
    // probe); have them reap themselves.
    raw->set_on_finished([this, tenant_id] { ReapSession(tenant_id); });
    sessions_[tenant_id] = std::move(session);
    raw->ReplyToRequest();
    if (raw->finished()) ReapSession(tenant_id);
    return;
  }

  // Data-plane messages belong to the target session; control acks
  // belong to the source job.
  switch (message.type) {
    case net::MessageType::kSnapshotBegin:
    case net::MessageType::kSnapshotChunk:
    case net::MessageType::kSnapshotEnd:
    case net::MessageType::kDeltaBatch:
    case net::MessageType::kHandoverRequest:
    case net::MessageType::kHandoverCommit: {
      auto it = sessions_.find(message.tenant_id);
      if (it == sessions_.end()) {
        SLACKER_LOG_WARN << "no session for tenant " << message.tenant_id;
        if (message.type == net::MessageType::kSnapshotChunk) {
          // Sessionless chunks (stale stream after an abort) vanish
          // here; the conservation ledger counts them as dropped.
          cluster_->auditor()->OnChunkDropped(message.tenant_id,
                                              message.payload_bytes,
                                              message.wire_payload_bytes());
        }
        return;
      }
      const uint64_t tenant_id = message.tenant_id;
      it->second->HandleMessage(std::move(message));
      if (it->second->finished()) ReapSession(tenant_id);
      return;
    }
    case net::MessageType::kMigrateAbort: {
      // Travels both directions: source→target cancels the staging
      // session; target→source fails the outgoing job.
      auto session_it = sessions_.find(message.tenant_id);
      if (session_it != sessions_.end()) {
        const uint64_t tenant_id = message.tenant_id;
        session_it->second->HandleMessage(std::move(message));
        if (session_it->second->finished()) ReapSession(tenant_id);
        return;
      }
      auto job_it = jobs_.find(message.tenant_id);
      if (job_it != jobs_.end()) {
        job_it->second->HandleMessage(message);
        return;
      }
      SLACKER_LOG_WARN << "abort for unknown tenant " << message.tenant_id;
      return;
    }
    case net::MessageType::kMigrateAccept:
    case net::MessageType::kSnapshotResume:
    case net::MessageType::kSnapshotNack:
    case net::MessageType::kSnapshotAck:
    case net::MessageType::kDeltaAck:
    case net::MessageType::kHandoverAck: {
      auto it = jobs_.find(message.tenant_id);
      if (it == jobs_.end()) {
        SLACKER_LOG_WARN << "no job for tenant " << message.tenant_id;
        return;
      }
      it->second->HandleMessage(message);
      return;
    }
    case net::MessageType::kMigrateRequest:
      // Unreachable: handled by the early return at the top. Spelled
      // out (no default:) so -Wswitch flags new message types.
      SLACKER_LOG_WARN << "controller ignoring message type "
                       << static_cast<int>(message.type);
      return;
  }
}

MigrationJob* MigrationController::ActiveJob(uint64_t tenant_id) {
  auto it = jobs_.find(tenant_id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void MigrationController::ReapSession(uint64_t tenant_id) {
  // Defer destruction: we may be inside the session's own call stack.
  cluster_->simulator()->After(0.0, [this, tenant_id] {
    sessions_.erase(tenant_id);
  });
}

}  // namespace slacker
