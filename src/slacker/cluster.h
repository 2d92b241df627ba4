#ifndef SLACKER_SLACKER_CLUSTER_H_
#define SLACKER_SLACKER_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/control/latency_monitor.h"
#include "src/net/channel.h"
#include "src/range/key_range.h"
#include "src/range/range_directory.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/resource/network_link.h"
#include "src/sim/simulator.h"
#include "src/slacker/invariant_auditor.h"
#include "src/slacker/migration.h"
#include "src/slacker/migration_controller.h"
#include "src/slacker/tenant_manager.h"
#include "src/workload/client_pool.h"

namespace slacker {

/// Which multitenancy level servers use (§2.1 / §6).
enum class MultitenancyModel {
  /// One dedicated engine + buffer pool per tenant (the paper's model:
  /// "we avoid any situations in which buffer allocations overlap").
  kProcessLevel,
  /// One shared buffer pool per server: cheaper per tenant, but
  /// neighbours contend for cache frames (the §6/§8 extension).
  kSharedProcess,
};

struct ClusterOptions {
  int num_servers = 3;
  resource::DiskOptions disk;
  resource::CpuOptions cpu;
  resource::NetworkLinkOptions link;
  /// Target-side options for incoming migrations on every server.
  MigrationOptions incoming_migration;

  MultitenancyModel multitenancy = MultitenancyModel::kProcessLevel;
  /// kSharedProcess: each server's single pool size (16 KiB pages).
  uint64_t shared_buffer_bytes = 512 * kMiB;

  /// Initial software version of every server. 0 means "legacy":
  /// migration pairs skip capability negotiation entirely and the wire
  /// format is byte-identical to the pre-versioning protocol (golden
  /// digests depend on this default). See net/negotiation.h for the
  /// version → feature-set table.
  uint32_t software_version = 0;
};

/// One physical machine: shared disk and CPU, the tenants living on it,
/// its latency monitor, and its migration controller.
class Server {
 public:
  Server(sim::Simulator* sim, uint64_t id, const ClusterOptions& options,
         Cluster* cluster);

  uint64_t id() const { return id_; }
  resource::DiskModel* disk() { return &disk_; }
  resource::CpuModel* cpu() { return &cpu_; }
  TenantManager* tenants() { return &tenants_; }
  control::LatencyMonitor* monitor() { return &monitor_; }
  /// nullptr while the server is down.
  MigrationController* controller() { return controller_.get(); }

  /// State that survives a crash: checkpoints, salvaged binlogs, and
  /// durably staged migration chunks (the simulated disk contents).
  DurableStore* durable() { return &durable_; }
  bool up() const { return up_; }
  /// Drain mode: the server keeps serving its tenants but must not
  /// gain any (stored on the TenantManager; survives crash/reboot so
  /// an operator's drain decision is not lost to a mid-drain crash).
  bool draining() const { return tenants_.draining(); }
  void set_draining(bool draining) { tenants_.set_draining(draining); }
  /// The software version this server runs. Changing it models a
  /// binary patch; only the upgrade machinery (via
  /// Cluster::SetServerVersion) should write it.
  uint32_t software_version() const { return software_version_; }
  void set_software_version(uint32_t v) { software_version_ = v; }
  /// Kills the control plane — the migration controller and every
  /// job/session it owns die with the process. The caller must already
  /// have failed and deleted the tenants (Cluster::CrashServer does).
  void Shutdown();
  /// Brings the server back with a fresh controller. Disk/CPU queues
  /// survive as objects; in-flight completions for dead tenants are
  /// no-ops via their expiry guards.
  void Reboot(Cluster* cluster, const MigrationOptions& incoming);

 private:
  uint64_t id_;
  resource::DiskModel disk_;
  resource::CpuModel cpu_;
  std::unique_ptr<storage::BufferPool> shared_pool_;
  TenantManager tenants_;
  control::LatencyMonitor monitor_;
  std::unique_ptr<MigrationController> controller_;
  DurableStore durable_;
  bool up_ = true;
  uint32_t software_version_ = 0;
};

/// The whole testbed in one object (the Figure 4 / Figure 10 setup):
/// N servers, a full mesh of gigabit links with a message channel per
/// ordered pair, the frontend routing table, and the plumbing that
/// routes client latencies to the hosting server's monitor. It is the
/// one fleet the migration jobs, the controllers and the forecast
/// sampler (FleetLoadSampler) talk to, and the TenantResolver of the
/// benchmark clients.
class Cluster : public workload::TenantResolver {
 public:
  Cluster(sim::Simulator* sim, const ClusterOptions& options);
  ~Cluster() override;

  sim::Simulator* simulator() { return sim_; }

  // --- Topology ---------------------------------------------------
  /// nullptr for an unknown id.
  Server* server(uint64_t id);
  size_t num_servers() const { return servers_.size(); }
  /// Ids of the servers currently up — the fleet the rebalancer plans
  /// over (a crashed server is neither a migration source nor target).
  std::vector<uint64_t> UpServerIds() const;
  /// The routing table (DESIGN.md §16): every tenant is registered
  /// with a single full-keyspace range at AddTenant time.
  range::RangeDirectory* directory() { return &ranges_; }
  /// Alias of directory(); the benchmark scenario still calls it.
  range::RangeDirectory* range_directory() { return &ranges_; }
  /// The directional channel carrying from→to traffic (created on first
  /// use). Exposed so chaos tests can inject faults into it.
  net::Channel* ChannelBetween(uint64_t from, uint64_t to);

  // --- Tenant lifecycle -------------------------------------------
  /// Creates a tenant on `server_id` and registers it in the directory.
  Result<engine::TenantDb*> AddTenant(uint64_t server_id,
                                      const engine::TenantConfig& config,
                                      bool load = true);
  /// Removes a tenant everywhere (directory + every owning server).
  /// FailedPrecondition while any of its migrations is in flight.
  Status RemoveTenant(uint64_t tenant_id);
  /// The tenant's instance on `server_id`, or nullptr (none there, or
  /// no such server).
  engine::TenantDb* TenantOn(uint64_t server_id, uint64_t tenant_id);
  /// Creates an instance on one server without touching the directory
  /// (migration staging). NotFound for an unknown server,
  /// FailedPrecondition on a draining one, AlreadyExists when the
  /// tenant is already there.
  Result<engine::TenantDb*> CreateTenantOn(uint64_t server_id,
                                           const engine::TenantConfig& config,
                                           bool load, bool frozen);
  /// Deletes the instance on one server (directory untouched).
  Status DeleteTenantOn(uint64_t server_id, uint64_t tenant_id);

  // --- Migration --------------------------------------------------
  /// Transmits over the simulated network; the receiving controller's
  /// HandleMessage fires on delivery. A down sender drops the message.
  void SendMessage(uint64_t from_server, uint64_t to_server,
                   const net::Message& message);
  /// Migrates `options.range` of `tenant_id` to `target_server` on the
  /// range's owner (DESIGN.md §16). The full range, the default, is the
  /// whole tenant and needs it unsharded (else FailedPrecondition); a
  /// partial range must be a RangeDirectory unit (SplitTenantRange
  /// first; else InvalidArgument). FailedPrecondition while another
  /// job of the tenant is in flight.
  Status StartMigration(uint64_t tenant_id, uint64_t target_server,
                        const MigrationOptions& options,
                        MigrationJob::DoneCallback done);
  /// Splits the range containing `split_key` in the router, making
  /// [lo, split_key) and [split_key, hi) independently migratable.
  /// Pure metadata: no data moves and no tenant instance is touched.
  Status SplitTenantRange(uint64_t tenant_id, uint64_t split_key);
  /// Merges the range containing `key` with its successor when both
  /// live on the same server (post-migration tidying).
  Status MergeTenantRange(uint64_t tenant_id, uint64_t key);
  /// The in-flight job for `tenant_id`, or nullptr.
  MigrationJob* ActiveJob(uint64_t tenant_id);
  /// Cancels an in-flight migration; the source stays authoritative.
  Status CancelMigration(uint64_t tenant_id,
                         const std::string& reason = "operator request");

  // --- Fault injection --------------------------------------------
  /// Kills `server_id` abruptly: every in-flight operation on its
  /// tenants fails with kUnavailable, its migration controller (jobs
  /// and staging sessions included) dies, and undelivered messages to
  /// it are dropped. What survives is the durable store: binlogs of
  /// the tenants it was authoritative for are salvaged into it at
  /// crash time (the WAL was on disk), alongside any checkpoints and
  /// staged migration chunks already there. No-op if already down.
  void CrashServer(uint64_t server_id);
  /// Schedules recovery `delay` seconds from now: reboot, then for each
  /// salvaged tenant rebuild from checkpoint + binlog suffix (or full
  /// binlog replay from the initial load), charging the recovery read
  /// before the tenant unfreezes and serves again.
  void RestartServer(uint64_t server_id, SimTime delay);
  bool ServerUp(uint64_t server_id) const;

  // --- Maintenance & rolling upgrades (DESIGN.md §12) --------------
  /// Flips `server_id` into (or out of) drain mode. A draining server
  /// rejects new tenant placements — both AddTenant and incoming
  /// migration staging — and the rebalancer evacuates it inside the
  /// latency guard band. Emits a drain obs event.
  Status SetDraining(uint64_t server_id, bool draining);
  /// The server's software version (0 for unknown servers).
  uint32_t ServerVersion(uint64_t server_id) const;
  /// Models patching the server binary (allowed while the server is
  /// down — the orchestrator patches between crash and restart). Runs
  /// the auditor's version-monotonicity check and emits an obs event.
  Status SetServerVersion(uint64_t server_id, uint32_t version);
  /// Cuts (or heals) the link between two servers; messages between
  /// them are silently dropped while partitioned.
  void SetPartitioned(uint64_t a, uint64_t b, bool partitioned);
  /// True while the a<->b link is cut (order-insensitive).
  bool IsPartitioned(uint64_t a, uint64_t b) const;
  /// Quiesce-free durability point: snapshots `tenant_id`'s table into
  /// its host's durable store and charges the checkpoint write. Call
  /// when the tenant is idle or frozen (the image is not fuzzy-safe).
  Status CheckpointTenant(uint64_t tenant_id);

  // --- Client plumbing --------------------------------------------
  /// TenantResolver: the instance on the tenant's home server.
  engine::TenantDb* Resolve(uint64_t tenant_id) override;
  /// Per-key routing: the instance on the server owning `key` per the
  /// directory.
  engine::TenantDb* ResolveForKey(uint64_t tenant_id, uint64_t key) override;
  /// Observer for ClientPool that feeds the hosting server's monitor.
  workload::ClientPool::LatencyObserver MakeLatencyObserver();
  /// Registers a pool so server monitors can probe outstanding work
  /// during stalls.
  void AttachClientPool(uint64_t tenant_id, workload::ClientPool* pool);

  // --- Observability ----------------------------------------------
  /// Installs a shared tracer: per-server disk queue-depth gauges and
  /// per-tenant op metrics attach to the tracer's registry, migrations
  /// and supervisors start emitting spans/events, and faults appear on
  /// the "faults" track. Pass nullptr to detach. The tracer must
  /// outlive the cluster (or be detached first).
  void InstallTracer(obs::Tracer* tracer);
  /// Latency (ms) above which a completed transaction emits an
  /// SlaViolation event (0 disables; needs an installed tracer).
  void set_sla_threshold_ms(double threshold_ms) {
    sla_threshold_ms_ = threshold_ms;
  }

  /// The installed tracer, or nullptr (instrumented code treats null
  /// as a no-op).
  obs::Tracer* tracer() { return tracer_; }
  /// Always on: every Cluster audits its migrations (DESIGN.md §9).
  InvariantAuditor* auditor() { return &auditor_; }

 private:
  void RecoverServer(uint64_t server_id);
  /// The controller of whichever owner of `tenant_id` runs a job for
  /// it, or nullptr.
  MigrationController* ControllerWithJob(uint64_t tenant_id);
  /// Hooks a tenant instance into the installed tracer's registry.
  void AttachTenantObs(engine::TenantDb* db);

  sim::Simulator* sim_;
  ClusterOptions options_;
  std::vector<std::unique_ptr<Server>> servers_;
  range::RangeDirectory ranges_;
  // One link + channel per ordered server pair, created lazily.
  std::map<std::pair<uint64_t, uint64_t>,
           std::unique_ptr<resource::NetworkLink>>
      links_;
  std::map<std::pair<uint64_t, uint64_t>, std::unique_ptr<net::Channel>>
      channels_;
  std::map<uint64_t, std::vector<workload::ClientPool*>> pools_by_tenant_;
  /// Unordered server pairs (min, max) whose link is currently cut.
  std::set<std::pair<uint64_t, uint64_t>> partitions_;

  InvariantAuditor auditor_;

  /// Observability (null when no tracer is installed).
  obs::Tracer* tracer_ = nullptr;
  double sla_threshold_ms_ = 0.0;
  obs::Histogram* txn_latency_hist_ = nullptr;
  obs::Counter* sla_violations_counter_ = nullptr;
};

}  // namespace slacker

#endif  // SLACKER_SLACKER_CLUSTER_H_
