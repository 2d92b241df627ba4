#include "src/slacker/fluid_migration.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/range/partitioner.h"
#include "src/range/range_directory.h"

namespace slacker {

Status FluidMigrationOptions::Validate() const {
  if (target_ranges == 0) {
    return Status::InvalidArgument("target_ranges must be at least 1");
  }
  if (migration.mode != MigrationMode::kLive) {
    return Status::InvalidArgument(
        "fluid migration requires MigrationMode::kLive");
  }
  return migration.Validate();
}

FluidMigrator::FluidMigrator(Cluster* cluster, uint64_t tenant_id,
                             uint64_t target_server,
                             FluidMigrationOptions options, DoneCallback done)
    : cluster_(cluster),
      tenant_id_(tenant_id),
      target_server_(target_server),
      options_(std::move(options)),
      done_(std::move(done)) {
  report_.tenant_id = tenant_id;
  report_.target_server = target_server;
}

Status FluidMigrator::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  // The per-range template must not pre-bake a range; each job gets its
  // own. Validate the caller's intent before mutating the router.
  if (options_.migration.range_scoped) {
    return Status::InvalidArgument(
        "leave migration.range_scoped unset; FluidMigrator fills it");
  }
  SLACKER_RETURN_IF_ERROR(options_.Validate());
  started_ = true;
  report_.start_time = cluster_->simulator()->Now();

  range::RangeDirectory* router = cluster_->directory();
  if (!router->HasTenant(tenant_id_)) {
    return Status::NotFound("tenant not registered in the range directory");
  }
  // Carve migration units along the authoritative table's B+-tree
  // subtree separators. A split key that is already a range boundary
  // (e.g. from a previous partial fluid migration) is simply kept.
  engine::TenantDb* db = cluster_->Resolve(tenant_id_);
  if (db == nullptr) {
    return Status::Unavailable("tenant has no authoritative instance");
  }
  if (options_.target_ranges > 1) {
    const std::vector<uint64_t> splits =
        range::PartitionSplitKeys(db->table(), options_.target_ranges - 1);
    for (uint64_t split_key : splits) {
      const Status cut = cluster_->SplitTenantRange(tenant_id_, split_key);
      if (!cut.ok() && cut.code() != StatusCode::kInvalidArgument) {
        return cut;
      }
    }
  }
  pending_.clear();
  for (const range::OwnedRange& owned : router->RangesOf(tenant_id_)) {
    if (owned.server != target_server_) pending_.push_back(owned.range);
  }
  report_.ranges_planned = pending_.size();
  if (pending_.empty()) {
    Finish(Status::Ok());  // Already fully on the target.
    return Status::Ok();
  }
  StartNextRange();
  return Status::Ok();
}

void FluidMigrator::StartNextRange() {
  if (finished_) return;
  if (pending_.empty()) {
    MergeConverged();
    Finish(Status::Ok());
    return;
  }
  const range::KeyRange next = pending_.front();
  pending_.erase(pending_.begin());
  const Status launched = cluster_->StartRangeMigration(
      tenant_id_, next, target_server_, options_.migration,
      lifetime_.Guard([this](const MigrationReport& range_report) {
        OnRangeDone(range_report);
      }));
  if (!launched.ok()) Finish(launched);
}

void FluidMigrator::OnRangeDone(const MigrationReport& range_report) {
  report_.ranges.push_back(range_report);
  if (!range_report.status.ok()) {
    // The tenant is left sharded but fully routable: every range still
    // has exactly one owner. The caller may retry the remainder.
    SLACKER_LOG_WARN << "fluid migration of tenant " << tenant_id_
                     << " stopped at range " << range_report.range.ToString()
                     << ": " << range_report.status.ToString();
    Finish(range_report.status);
    return;
  }
  ++report_.ranges_moved;
  report_.max_downtime_ms =
      std::max(report_.max_downtime_ms, range_report.downtime_ms);
  report_.total_downtime_ms += range_report.downtime_ms;
  StartNextRange();
}

void FluidMigrator::MergeConverged() {
  range::RangeDirectory* router = cluster_->directory();
  const std::vector<uint64_t> owners = router->ServersOf(tenant_id_);
  if (owners.size() != 1) return;  // Still sharded; keep the table.
  while (router->RangeCount(tenant_id_) > 1) {
    if (!cluster_->MergeTenantRange(tenant_id_, 0).ok()) break;
  }
}

void FluidMigrator::Finish(Status status) {
  if (finished_) return;
  finished_ = true;
  report_.status = std::move(status);
  report_.end_time = cluster_->simulator()->Now();
  // Deferred: the callback may destroy this migrator.
  cluster_->simulator()->Post(std::move(done_), report_);
}

}  // namespace slacker
