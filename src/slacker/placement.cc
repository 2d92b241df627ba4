#include "src/slacker/placement.h"

#include <algorithm>
#include <sstream>

namespace slacker {
namespace {

/// Plans must leave the target below the overload threshold by this
/// margin.
constexpr double kTargetHeadroom = 0.10;

}  // namespace

Status PlacementOptions::Validate() const {
  if (overload_threshold <= kTargetHeadroom || overload_threshold > 1) {
    return Status::InvalidArgument(
        "overload_threshold must be in (0.1, 1]");
  }
  if (consolidation_threshold < 0 ||
      consolidation_threshold >= overload_threshold) {
    return Status::InvalidArgument("bad consolidation_threshold");
  }
  return Status::Ok();
}

PlacementAdvisor::PlacementAdvisor(PlacementOptions options)
    : options_(options) {}

int PlacementAdvisor::PickTarget(const std::vector<ServerLoadStat>& servers,
                                 uint64_t exclude_server, double demand,
                                 const std::vector<double>& projected) const {
  int best = -1;
  double best_util = 1e9;
  for (size_t i = 0; i < servers.size(); ++i) {
    if (servers[i].server_id == exclude_server) continue;
    // A draining server must not gain tenants (the Cluster placement
    // paths would refuse anyway; don't plan doomed moves).
    if (servers[i].draining) continue;
    const double after = projected[i] + demand;
    if (after > options_.overload_threshold - kTargetHeadroom) {
      continue;
    }
    if (projected[i] < best_util) {
      best_util = projected[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

int PlacementAdvisor::PickConsolidationTarget(
    const std::vector<ServerLoadStat>& servers, uint64_t exclude_server,
    double demand, const std::vector<double>& projected) const {
  int best = -1;
  double best_util = -1.0;
  for (size_t i = 0; i < servers.size(); ++i) {
    if (servers[i].server_id == exclude_server) continue;
    // A draining server is never a consolidation target either.
    if (servers[i].draining) continue;
    // A fellow consolidation candidate is never a target: it is about
    // to be emptied itself, and refilling it defeats the shutdown.
    if (servers[i].utilization <= options_.consolidation_threshold) continue;
    const double after = projected[i] + demand;
    if (after > options_.overload_threshold - kTargetHeadroom) {
      continue;
    }
    if (projected[i] > best_util) {
      best_util = projected[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::vector<MigrationPlan> PlacementAdvisor::PlanRelief(
    const std::vector<ServerLoadStat>& servers) const {
  std::vector<MigrationPlan> plans;
  // Projected utilization per server as plans accumulate.
  std::vector<double> projected;
  projected.reserve(servers.size());
  for (const auto& s : servers) projected.push_back(s.utilization);

  for (size_t si = 0; si < servers.size(); ++si) {
    const ServerLoadStat& server = servers[si];
    if (server.utilization <= options_.overload_threshold) continue;
    const double excess = server.utilization - options_.overload_threshold;

    // Which tenant: smallest data footprint among those whose removal
    // clears the excess ("judicious decisions ... which tenant", §1.2);
    // if none alone suffices, take the biggest-demand tenant.
    const TenantLoadStat* pick = nullptr;
    for (const TenantLoadStat& t : server.tenants) {
      if (t.demand + 1e-9 < excess) continue;
      if (pick == nullptr || t.data_bytes < pick->data_bytes) pick = &t;
    }
    if (pick == nullptr) {
      for (const TenantLoadStat& t : server.tenants) {
        if (pick == nullptr || t.demand > pick->demand) pick = &t;
      }
    }
    if (pick == nullptr) continue;

    const int target = PickTarget(servers, server.server_id, pick->demand,
                                  projected);
    if (target < 0) continue;  // Nowhere to put it; needs new capacity.

    MigrationPlan plan;
    plan.tenant_id = pick->tenant_id;
    plan.source_server = server.server_id;
    plan.target_server = servers[target].server_id;
    std::ostringstream why;
    why << "server " << server.server_id << " at "
        << static_cast<int>(server.utilization * 100)
        << "% > threshold; tenant " << pick->tenant_id << " ("
        << static_cast<int>(pick->demand * 100) << "% demand, "
        << pick->data_bytes / (1024 * 1024) << " MiB) to server "
        << servers[target].server_id;
    plan.rationale = why.str();
    projected[si] -= pick->demand;
    projected[target] += pick->demand;
    plans.push_back(plan);
  }
  return plans;
}

std::vector<MigrationPlan> PlacementAdvisor::PlanConsolidation(
    const std::vector<ServerLoadStat>& servers) const {
  std::vector<MigrationPlan> plans;
  std::vector<double> projected;
  projected.reserve(servers.size());
  for (const auto& s : servers) projected.push_back(s.utilization);

  // Empty the least-loaded candidates first.
  std::vector<size_t> order(servers.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return servers[a].utilization < servers[b].utilization;
  });

  for (size_t oi : order) {
    const ServerLoadStat& server = servers[oi];
    // Draining servers are PlanDrain's business, not consolidation's.
    if (server.draining) continue;
    if (server.utilization > options_.consolidation_threshold) continue;
    if (server.tenants.empty()) continue;
    // Try to place every tenant elsewhere; all-or-nothing (a server
    // that keeps one tenant cannot be powered down).
    std::vector<MigrationPlan> batch;
    std::vector<double> trial = projected;
    bool ok = true;
    for (const TenantLoadStat& t : server.tenants) {
      const int target = PickConsolidationTarget(servers, server.server_id,
                                                 t.demand, trial);
      if (target < 0) {
        ok = false;
        break;
      }
      MigrationPlan plan;
      plan.tenant_id = t.tenant_id;
      plan.source_server = server.server_id;
      plan.target_server = servers[target].server_id;
      plan.rationale = "consolidate: empty server " +
                       std::to_string(server.server_id) +
                       " for shutdown";
      trial[target] += t.demand;
      batch.push_back(plan);
    }
    if (!ok) continue;
    projected = trial;
    projected[oi] = 0.0;
    plans.insert(plans.end(), batch.begin(), batch.end());
  }
  return plans;
}

std::vector<MigrationPlan> PlacementAdvisor::PlanDrain(
    const std::vector<ServerLoadStat>& servers) const {
  std::vector<MigrationPlan> plans;
  std::vector<double> projected;
  projected.reserve(servers.size());
  for (const auto& s : servers) projected.push_back(s.utilization);

  for (size_t si = 0; si < servers.size(); ++si) {
    const ServerLoadStat& server = servers[si];
    if (!server.draining || server.tenants.empty()) continue;
    // Smallest data first: quick evacuations free the admission budget
    // sooner and shrink the wave's tail.
    std::vector<const TenantLoadStat*> order;
    order.reserve(server.tenants.size());
    for (const TenantLoadStat& t : server.tenants) order.push_back(&t);
    std::sort(order.begin(), order.end(),
              [](const TenantLoadStat* a, const TenantLoadStat* b) {
                return a->data_bytes != b->data_bytes
                           ? a->data_bytes < b->data_bytes
                           : a->tenant_id < b->tenant_id;
              });
    for (const TenantLoadStat* t : order) {
      const int target =
          PickTarget(servers, server.server_id, t->demand, projected);
      if (target < 0) continue;  // No headroom anywhere; retry next tick.
      MigrationPlan plan;
      plan.tenant_id = t->tenant_id;
      plan.source_server = server.server_id;
      plan.target_server = servers[target].server_id;
      plan.rationale = "drain: evacuate tenant " +
                       std::to_string(t->tenant_id) + " from server " +
                       std::to_string(server.server_id) + " to server " +
                       std::to_string(servers[target].server_id);
      projected[si] -= t->demand;
      projected[target] += t->demand;
      plans.push_back(plan);
    }
  }
  return plans;
}

std::vector<ServerLoadStat> CollectClusterStats(
    Cluster* cluster,
    std::vector<std::pair<uint64_t, uint64_t>>* ops_baseline) {
  std::vector<ServerLoadStat> stats;
  std::vector<std::pair<uint64_t, uint64_t>> new_baseline;
  // Sorted copy of the previous baseline so the per-tenant lookup is
  // O(log T) instead of a linear scan (O(T^2) per sample hurts at the
  // fleet bench's 128 tenants). stable_sort + upper_bound preserve the
  // scan's last-match-wins semantics should an id ever repeat.
  std::vector<std::pair<uint64_t, uint64_t>> sorted_baseline;
  if (ops_baseline != nullptr) {
    sorted_baseline = *ops_baseline;
    std::stable_sort(sorted_baseline.begin(), sorted_baseline.end(),
                     [](const std::pair<uint64_t, uint64_t>& a,
                        const std::pair<uint64_t, uint64_t>& b) {
                       return a.first < b.first;
                     });
  }
  for (size_t sid = 0; sid < cluster->num_servers(); ++sid) {
    Server* server = cluster->server(sid);
    ServerLoadStat stat;
    stat.server_id = sid;
    stat.utilization = server->disk()->Utilization();
    stat.draining = server->draining();

    // Apportion the server's utilization across tenants by the number
    // of operations each executed since the last sample.
    uint64_t total_ops = 0;
    std::vector<std::pair<uint64_t, uint64_t>> deltas;  // (tenant, ops).
    for (uint64_t tenant_id : server->tenants()->TenantIds()) {
      const engine::TenantDb* db = server->tenants()->Get(tenant_id);
      uint64_t prev = 0;
      if (!sorted_baseline.empty()) {
        const auto it = std::upper_bound(
            sorted_baseline.begin(), sorted_baseline.end(), tenant_id,
            [](uint64_t id, const std::pair<uint64_t, uint64_t>& entry) {
              return id < entry.first;
            });
        if (it != sorted_baseline.begin() &&
            std::prev(it)->first == tenant_id) {
          prev = std::prev(it)->second;
        }
      }
      const uint64_t now = db->ops_executed();
      const uint64_t delta = now >= prev ? now - prev : now;
      deltas.emplace_back(tenant_id, delta);
      new_baseline.emplace_back(tenant_id, now);
      total_ops += delta;
    }
    for (const auto& [tenant_id, ops] : deltas) {
      TenantLoadStat tstat;
      tstat.tenant_id = tenant_id;
      tstat.demand = total_ops == 0
                         ? 0.0
                         : stat.utilization * static_cast<double>(ops) /
                               static_cast<double>(total_ops);
      tstat.data_bytes = server->tenants()->Get(tenant_id)->DataBytes();
      stat.tenants.push_back(tstat);
    }
    stats.push_back(std::move(stat));
  }
  if (ops_baseline != nullptr) *ops_baseline = std::move(new_baseline);
  return stats;
}

}  // namespace slacker
