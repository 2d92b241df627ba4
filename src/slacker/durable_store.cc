#include "src/slacker/durable_store.h"

#include <algorithm>
#include <utility>

namespace slacker {

void DurableStore::SaveCheckpoint(engine::CheckpointImage image) {
  checkpoints_[image.tenant_id] = std::move(image);
}

const engine::CheckpointImage* DurableStore::Checkpoint(
    uint64_t tenant_id) const {
  auto it = checkpoints_.find(tenant_id);
  return it == checkpoints_.end() ? nullptr : &it->second;
}

void DurableStore::EraseCheckpoint(uint64_t tenant_id) {
  checkpoints_.erase(tenant_id);
}

void DurableStore::SaveCrashState(uint64_t tenant_id,
                                  DurableTenantState state) {
  crash_states_[tenant_id] = std::move(state);
}

DurableTenantState* DurableStore::CrashState(uint64_t tenant_id) {
  auto it = crash_states_.find(tenant_id);
  return it == crash_states_.end() ? nullptr : &it->second;
}

std::vector<uint64_t> DurableStore::CrashedTenants() const {
  std::vector<uint64_t> ids;
  ids.reserve(crash_states_.size());
  for (const auto& [id, state] : crash_states_) ids.push_back(id);
  return ids;
}

void DurableStore::EraseCrashState(uint64_t tenant_id) {
  crash_states_.erase(tenant_id);
}

StagedSnapshot* DurableStore::Staged(uint64_t tenant_id) {
  auto it = staged_.find(tenant_id);
  return it == staged_.end() ? nullptr : &it->second;
}

StagedSnapshot* DurableStore::EnsureStaged(uint64_t tenant_id,
                                           uint64_t source_server,
                                           const net::TenantWireConfig& config,
                                           storage::Lsn start_lsn) {
  StagedSnapshot& staged = staged_[tenant_id];
  if (staged.tenant_id != tenant_id || staged.start_lsn != start_lsn ||
      !(staged.config == config)) {
    staged = StagedSnapshot{};
    staged.tenant_id = tenant_id;
    staged.config = config;
    staged.start_lsn = start_lsn;
  }
  staged.source_server = source_server;
  return &staged;
}

void DurableStore::AppendStagedRows(uint64_t tenant_id,
                                    const std::vector<storage::Record>& rows,
                                    uint64_t next_resume_key, uint64_t bytes) {
  auto it = staged_.find(tenant_id);
  if (it == staged_.end()) return;
  StagedSnapshot& staged = it->second;
  staged.rows.Append(rows.data(), rows.size());
  staged.resume_key = std::max(staged.resume_key, next_resume_key);
  staged.bytes_staged += bytes;
}

void DurableStore::EraseStaged(uint64_t tenant_id) {
  staged_.erase(tenant_id);
}

}  // namespace slacker
