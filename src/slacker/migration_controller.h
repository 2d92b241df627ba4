#ifndef SLACKER_SLACKER_MIGRATION_CONTROLLER_H_
#define SLACKER_SLACKER_MIGRATION_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/common/status.h"
#include "src/slacker/migration.h"

namespace slacker {

/// The per-server migration controller from Figure 4: accepts commands
/// ("migrate tenant 5 to server XYZ"), drives outgoing migrations as
/// MigrationJobs, and serves incoming ones as TargetSessions.
/// Controllers are peers — all coordination flows through messages.
class MigrationController {
 public:
  MigrationController(Cluster* cluster, uint64_t server_id);

  MigrationController(const MigrationController&) = delete;
  MigrationController& operator=(const MigrationController&) = delete;

  /// Starts migrating a locally hosted tenant to `target_server`.
  /// `done` fires with the final report. The caller admits one job per
  /// tenant (Cluster::StartMigration checks every owner).
  Status StartMigration(uint64_t tenant_id, uint64_t target_server,
                        const MigrationOptions& options,
                        MigrationJob::DoneCallback done);

  /// Cancels an in-flight outgoing migration (see MigrationJob::Cancel
  /// for semantics). NotFound if no migration of this tenant is active.
  Status CancelMigration(uint64_t tenant_id, const std::string& reason);

  /// Entry point for every message addressed to this server. A target
  /// session may move a snapshot chunk's rows out of `message`.
  void HandleMessage(uint64_t from_server, net::Message&& message);

  /// The in-progress outgoing job for `tenant_id`, or nullptr.
  MigrationJob* ActiveJob(uint64_t tenant_id);
  size_t active_jobs() const { return jobs_.size(); }
  size_t active_sessions() const { return sessions_.size(); }

  /// Options applied to the *target side* of incoming migrations
  /// (delta-apply cost model); a per-server policy.
  void set_incoming_options(const MigrationOptions& options) {
    incoming_options_ = options;
  }

 private:
  void ReapSession(uint64_t tenant_id);

  Cluster* cluster_;
  uint64_t server_id_;
  MigrationOptions incoming_options_;
  std::unordered_map<uint64_t, std::unique_ptr<MigrationJob>> jobs_;
  std::unordered_map<uint64_t, std::unique_ptr<TargetSession>> sessions_;
};

}  // namespace slacker

#endif  // SLACKER_SLACKER_MIGRATION_CONTROLLER_H_
