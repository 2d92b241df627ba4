#include "perfbench/scenario.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "bench/harness.h"
#include "perfbench/bench_stats.h"
#include "perfbench/host_probe.h"
#include "perfbench/wall_trace.h"
#include "src/slacker/cluster.h"
#include "src/slacker/fluid_migration.h"
#include "src/slacker/placement.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace perfbench {

using slacker::Cluster;
using slacker::kKiB;
using slacker::kMiB;
using slacker::MigrationOptions;
using slacker::MigrationReport;
using slacker::SimTime;
using slacker::Status;

namespace {

/// The end condition is checked on this grid of simulated seconds in
/// both modes, so traced and untraced runs stop at the same instant.
constexpr SimTime kStep = 1.0;
/// Traced runs cut each step into this many RunUntil slices.
constexpr int kSlicesPerStep = 10;
/// Wall seconds between memory-probe blocks in the timed phase (a
/// block costs about 0.5 ms, so about 2% of the phase).
constexpr double kProbeEvery = 0.025;

/// Size and timeline of one workload.
struct Shape {
  int servers = 4;
  int tenants = 16;
  uint64_t rows = 8 * 1024;
  /// Buffer pool as a fraction of the tenant's data.
  double pool_fraction = 1.0;
  double cpu_per_op = 0.0003;
  int ops_per_txn = 10;
  double read_fraction = 0.85;
  /// Mean inter-arrival per tenant (fleet_reads derives its own).
  double interarrival = 0.001;
  /// Open-loop load before the first migration starts.
  SimTime warmup = 5.0;
  /// Load kept running after the last migration, then the time left
  /// for queued and in-flight transactions to finish.
  SimTime tail = 2.0;
  SimTime drain = 5.0;
  /// The run fails if the migrations have not finished by then.
  SimTime deadline = 600.0;
  /// fleet_writes: ranges per fluid job.
  size_t ranges = 8;
  /// fleet_reads: from `hotspot_at`, `waves` hotspots of `wave_seconds`
  /// each roll over the fleet. Wave w triples the load of the tenants
  /// that started on servers s with s % hot_every == w % hot_every, and
  /// cools the previous wave. Relief is planned every `relief_period`
  /// until the last wave ends.
  SimTime hotspot_at = 40.0;
  int waves = 4;
  SimTime wave_seconds = 30.0;
  int hot_every = 4;
  SimTime relief_period = 10.0;
  /// bulk_codec: the tenant's size relative to the paper's 1 GiB.
  double size_scale = 1.0;
  /// The timed phase is bound by cache-missing memory traffic, so its
  /// speed is scaled by the MemoryProbe's slowdown (README.md).
  bool memory_bound = true;
};

Shape ShapeFor(Workload workload, bool quick) {
  Shape shape;
  switch (workload) {
    case Workload::kFleetWrites:
      // Tenants live on all but the last server, which starts empty and
      // receives server 0's tenants. 0.8 ms of CPU per update keeps each
      // quad-core host ~80% busy, so most updates queue for a core.
      shape.servers = quick ? 3 : 5;
      shape.tenants = quick ? 4 : 16;
      shape.rows = quick ? 2048 : 8 * 1024;
      shape.cpu_per_op = 0.0008;
      shape.ops_per_txn = 1;
      shape.read_fraction = 0.0;
      shape.interarrival = 0.001;
      shape.warmup = quick ? 1.0 : 5.0;
      shape.ranges = quick ? 4 : 8;
      break;
    case Workload::kFleetReads:
      shape.servers = quick ? 4 : 32;
      shape.tenants = quick ? 16 : 256;
      shape.rows = quick ? 4096 : 16 * 1024;
      shape.pool_fraction = 1.0 / 8.0;
      shape.warmup = quick ? 10.0 : 30.0;
      shape.hotspot_at = quick ? 15.0 : 40.0;
      shape.waves = quick ? 2 : 16;
      shape.hot_every = quick ? 2 : 4;
      shape.deadline =
          shape.hotspot_at + shape.waves * shape.wave_seconds + 300.0;
      break;
    case Workload::kBulkCodec:
      shape.servers = 3;
      shape.tenants = 1;
      // CRC and LZ over the payload: compute-bound, so the memory probe
      // would only add its own noise.
      shape.memory_bound = false;
      shape.size_scale = quick ? 1.0 / 64.0 : 1.0;
      shape.warmup = quick ? 5.0 : 30.0;
      // One tenant at 4 txn/s yields only ~240 latency samples during
      // the move, and their percentiles swing with the seed; over 400 s
      // more of load the median holds to ~5%. The extra simulated time
      // is nearly idle and costs little wall time.
      shape.tail = 400.0;
      break;
  }
  return shape;
}

/// The disk-busy seconds one fleet_reads transaction costs: ops x the
/// steady-state miss rate (the pool holds 1/8 of the pages) x one page
/// read on the calibrated paper disk. Used only to size arrival rates.
double BusySecondsPerTxn(const Shape& shape) {
  const double page_read =
      0.008 + 16.0 * static_cast<double>(kKiB) / (50.0 * static_cast<double>(kMiB));
  return shape.ops_per_txn * (1.0 - shape.pool_fraction) * page_read;
}

/// Per-server disk stats summed across the epochs relief planning
/// resets.
struct DiskTally {
  SimTime epoch = 0.0;
  double busy_seconds = 0.0;
  uint64_t requests = 0;
  double wait_sum = 0.0;
  uint64_t wait_count = 0;
};

/// Engine and buffer-pool counters of one tenant instance, as last
/// sampled. Instances retired by a handover keep their last sample.
struct InstanceCounters {
  const slacker::engine::TenantDb* db = nullptr;
  uint64_t pass = 0;
  uint64_t ops = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

class Bench {
 public:
  explicit Bench(const RunOptions& options)
      : options_(options), shape_(ShapeFor(options.workload, options.quick)) {
    // Allocated here, before set-up is timed.
    if (shape_.memory_bound) probe_ = std::make_unique<MemoryProbe>();
  }

  RunResult Run() {
    const WallClock::time_point setup_begin = WallClock::now();
    BuildFleet();
    setup_seconds_ = SecondsBetween(setup_begin, WallClock::now());
    checks_before_ = cluster_->auditor()->checks_passed();

    RunTimed();
    Audit();
    return Collect();
  }

 private:
  // --- Setup --------------------------------------------------------

  void BuildFleet() {
    slacker::ClusterOptions cluster_options = slacker::bench::PaperClusterOptions();
    cluster_options.num_servers = shape_.servers;
    if (options_.workload == Workload::kFleetWrites) {
      // The target replays deltas through full index maintenance (the
      // incoming side of the protocol carries that cost).
      cluster_options.incoming_migration = FleetWritesMigration();
    }
    cluster_ = std::make_unique<Cluster>(&sim_, cluster_options);
    disks_.resize(shape_.servers);

    switch (options_.workload) {
      case Workload::kFleetWrites:
        BuildFleetWrites();
        break;
      case Workload::kFleetReads:
        BuildFleetReads();
        break;
      case Workload::kBulkCodec:
        BuildBulkCodec();
        break;
    }
  }

  void BuildFleetWrites() {
    for (int i = 0; i < shape_.tenants; ++i) {
      slacker::engine::TenantConfig tenant = FleetTenant(i);
      if (!AddTenant(static_cast<uint64_t>(i % (shape_.servers - 1)), tenant)) {
        continue;
      }
      slacker::workload::YcsbConfig ycsb = FleetYcsb();
      ycsb.mean_interarrival = shape_.interarrival;
      // Single-op transactions route exactly by key, so a tenant that is
      // split across two servers mid-move serves from both halves.
      AddPool(tenant.tenant_id, ycsb, /*route_by_key=*/true);
    }
    sim_.At(shape_.warmup, [this] { StartNextFluid(); });
  }

  void BuildFleetReads() {
    const int per_server = shape_.tenants / shape_.servers;
    double weight_sum = 0.0;
    for (int k = 0; k < per_server; ++k) weight_sum += 1.0 / (1.0 + k);
    // Baseline load: ~27% of each server's disk.
    const double server_txn_rate = 0.27 / BusySecondsPerTxn(shape_);
    for (int i = 0; i < shape_.tenants; ++i) {
      slacker::engine::TenantConfig tenant = FleetTenant(i);
      if (!AddTenant(static_cast<uint64_t>(i % shape_.servers), tenant)) continue;
      // Harmonic skew within a server: its k-th tenant gets 1/(1+k).
      const int k = i / shape_.servers;
      slacker::workload::YcsbConfig ycsb = FleetYcsb();
      ycsb.mean_interarrival =
          weight_sum / (server_txn_rate * (1.0 / (1.0 + k)));
      AddPool(tenant.tenant_id, ycsb, /*route_by_key=*/false);
    }
    const SimTime relief_end =
        shape_.hotspot_at + shape_.waves * shape_.wave_seconds;
    for (int wave = 0; wave < shape_.waves; ++wave) {
      sim_.At(shape_.hotspot_at + wave * shape_.wave_seconds,
              [this, wave] { StartWave(wave); });
    }
    for (SimTime t = shape_.hotspot_at + shape_.relief_period;
         t <= relief_end + 1e-9; t += shape_.relief_period) {
      sim_.At(t, [this] { ReliefTick(); });
    }
    sim_.At(relief_end + 1e-6, [this] {
      relief_closed_ = true;
      MaybeFinishRelief();
    });
  }

  void BuildBulkCodec() {
    using slacker::bench::PaperConfig;
    slacker::engine::TenantConfig tenant = slacker::bench::PaperTenantConfig(
        PaperConfig::kEvaluation, 1, shape_.size_scale);
    if (!AddTenant(0, tenant)) return;
    slacker::workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival =
        slacker::bench::PaperInterarrival(PaperConfig::kEvaluation);
    AddPool(tenant.tenant_id, ycsb, /*route_by_key=*/false);
    sim_.At(shape_.warmup, [this] { StartBulkMigration(); });
  }

  slacker::engine::TenantConfig FleetTenant(int index) const {
    slacker::engine::TenantConfig tenant;
    tenant.tenant_id = static_cast<uint64_t>(index) + 1;
    tenant.layout.record_count = shape_.rows;
    tenant.buffer_pool_bytes = static_cast<uint64_t>(
        static_cast<double>(shape_.rows * kKiB) * shape_.pool_fraction);
    tenant.cpu_per_op = shape_.cpu_per_op;
    tenant.commit_latency = 0.0005;
    return tenant;
  }

  slacker::workload::YcsbConfig FleetYcsb() const {
    slacker::workload::YcsbConfig ycsb;
    ycsb.record_count = shape_.rows;
    ycsb.ops_per_txn = shape_.ops_per_txn;
    ycsb.mix.read = shape_.read_fraction;
    ycsb.mix.update = 1.0 - shape_.read_fraction;
    return ycsb;
  }

  /// Creates, loads and warms one tenant; false (and a failure) when
  /// the cluster refuses it.
  bool AddTenant(uint64_t server_id, const slacker::engine::TenantConfig& tenant) {
    const WallClock::time_point begin = WallClock::now();
    auto db = cluster_->AddTenant(server_id, tenant, /*load=*/true);
    const WallClock::time_point loaded = WallClock::now();
    if (!db.ok()) {
      Fail("AddTenant " + std::to_string(tenant.tenant_id) + ": " +
           db.status().ToString());
      return false;
    }
    (*db)->WarmBufferPool();
    if (options_.traced) {
      trace_.AddSpan("engine", "AddTenant", begin, loaded);
      trace_.AddSpan("storage", "WarmBufferPool", loaded, WallClock::now());
    }
    return true;
  }

  void AddPool(uint64_t tenant_id, const slacker::workload::YcsbConfig& ycsb,
               bool route_by_key) {
    workloads_.push_back(std::make_unique<slacker::workload::YcsbWorkload>(
        ycsb, tenant_id, options_.seed * 1000003 + tenant_id * 1000));
    pools_.push_back(std::make_unique<slacker::workload::ClientPool>(
        &sim_, workloads_.back().get(), cluster_.get(),
        cluster_->MakeLatencyObserver()));
    pool_tenants_.push_back(tenant_id);
    pools_.back()->set_route_by_key(route_by_key);
    cluster_->AttachClientPool(tenant_id, pools_.back().get());
    pools_.back()->Start();
  }

  // --- Migration plans (all driven from simulated events) -----------

  MigrationOptions FleetWritesMigration() const {
    MigrationOptions migration;
    migration.throttle = slacker::ThrottleKind::kFixed;
    migration.fixed_rate_mbps = 2.0;
    // Whole-tenant deltas never converge at this write rate; cap the
    // futile rounds as fig18 does (ranges stay under the cap).
    migration.delta_apply_seconds_per_mib = 0.5;
    migration.max_delta_rounds = 3;
    migration.prepare.base_seconds = 0.5;
    return migration;
  }

  MigrationOptions PidMigration(double output_max) const {
    MigrationOptions migration;
    migration.backup.chunk_bytes = 256 * kKiB;
    migration.prepare.base_seconds = 0.5;
    migration.controller_tick = 1.0;
    migration.pid.kp = 0.025;
    migration.pid.ki = 0.005;
    migration.pid.kd = 0.015;
    migration.pid.setpoint = 1000.0;
    migration.pid.output_min = 0.0;
    migration.pid.output_max = output_max;
    return migration;
  }

  /// fleet_writes: server 0's tenants move to the spare last server,
  /// one at a time.
  void StartNextFluid() {
    uint64_t tenant_id = 0;
    while (next_fluid_index_ < shape_.tenants) {
      const int i = next_fluid_index_++;
      if (i % (shape_.servers - 1) == 0) {
        tenant_id = static_cast<uint64_t>(i) + 1;
        break;
      }
    }
    if (tenant_id == 0) {
      FinishMigrations();
      return;
    }
    slacker::FluidMigrationOptions fluid;
    fluid.target_ranges = shape_.ranges;
    fluid.migration = FleetWritesMigration();
    fluid_.push_back(std::make_unique<slacker::FluidMigrator>(
        cluster_.get(), tenant_id, shape_.servers - 1, fluid,
        [this](const slacker::FluidMigrationReport& report) {
          if (!report.status.ok()) {
            Fail("fluid migration of tenant " +
                 std::to_string(report.tenant_id) + ": " +
                 report.status.ToString());
          }
          for (const MigrationReport& range : report.ranges) {
            reports_.push_back(range);
          }
          sim_.After(0.0, [this] { StartNextFluid(); });
        }));
    const WallClock::time_point begin = WallClock::now();
    const Status started = fluid_.back()->Start();
    TraceStart(begin);
    if (!started.ok()) {
      Fail("fluid start of tenant " + std::to_string(tenant_id) + ": " +
           started.ToString());
      sim_.After(0.0, [this] { StartNextFluid(); });
    }
  }

  /// bulk_codec: the paper tenant moves under the adaptive codec at the
  /// network-bound 12 MB/s ceiling.
  void StartBulkMigration() {
    MigrationOptions migration = PidMigration(/*output_max=*/12.0);
    migration.codec.mode = slacker::codec::CodecMode::kAdaptive;
    Launch(1, 1, migration);
  }

  /// fleet_reads: wave `wave` heats its servers' tenants 3x and cools
  /// the previous wave's (the load follows a tenant that moved).
  void StartWave(int wave) {
    const auto in_wave = [this](uint64_t tenant_id, int w) {
      const uint64_t home = (tenant_id - 1) % shape_.servers;
      return w >= 0 && static_cast<int>(home % shape_.hot_every) ==
                           w % shape_.hot_every;
    };
    for (size_t p = 0; p < pools_.size(); ++p) {
      if (in_wave(pool_tenants_[p], wave - 1)) {
        workloads_[p]->ScaleArrivalRate(1.0 / 3.0);
      }
      if (in_wave(pool_tenants_[p], wave)) workloads_[p]->ScaleArrivalRate(3.0);
    }
    // Start a fresh observation epoch for relief planning.
    (void)slacker::CollectClusterStats(cluster_.get(), &ops_baseline_);
    ResetDiskEpochs();
  }

  /// fleet_reads relief: the PlacementAdvisor's plans over the load seen
  /// since the last tick, at most one job out of and one into a server.
  void ReliefTick() {
    const std::vector<slacker::ServerLoadStat> stats =
        slacker::CollectClusterStats(cluster_.get(), &ops_baseline_);
    ResetDiskEpochs();
    for (const slacker::MigrationPlan& plan : advisor_.PlanRelief(stats)) {
      if (busy_servers_.count(plan.source_server) > 0 ||
          busy_servers_.count(plan.target_server) > 0 ||
          busy_tenants_.count(plan.tenant_id) > 0) {
        continue;
      }
      MigrationOptions migration = PidMigration(/*output_max=*/30.0);
      // A hard floor keeps relief moving while the hot source pins
      // latency above the setpoint; the target's latency counts too.
      migration.pid.output_min = 2.0;
      migration.use_target_latency = true;
      Launch(plan.tenant_id, plan.target_server, migration);
    }
  }

  void Launch(uint64_t tenant_id, uint64_t target, const MigrationOptions& migration) {
    const auto host = cluster_->directory()->Lookup(tenant_id);
    const uint64_t source = host.ok() ? *host : 0;
    const WallClock::time_point begin = WallClock::now();
    const Status started = cluster_->StartMigration(
        tenant_id, target, migration,
        [this, tenant_id, source, target](const MigrationReport& report) {
          reports_.push_back(report);
          busy_servers_.erase(source);
          busy_servers_.erase(target);
          busy_tenants_.erase(tenant_id);
          --inflight_;
          if (options_.workload == Workload::kBulkCodec) {
            FinishMigrations();
          } else {
            MaybeFinishRelief();
          }
        });
    TraceStart(begin);
    if (!started.ok()) {
      Fail("StartMigration of tenant " + std::to_string(tenant_id) + ": " +
           started.ToString());
      if (options_.workload == Workload::kBulkCodec) FinishMigrations();
      return;
    }
    ++inflight_;
    busy_servers_.insert(source);
    busy_servers_.insert(target);
    busy_tenants_.insert(tenant_id);
  }

  void MaybeFinishRelief() {
    if (relief_closed_ && inflight_ == 0) FinishMigrations();
  }

  /// The last migration is over: keep the load running for the tail,
  /// then stop the generators and let queued work drain.
  void FinishMigrations() {
    if (end_time_ >= 0.0) return;
    const SimTime stop = sim_.Now() + shape_.tail;
    sim_.At(stop, [this] {
      for (auto& pool : pools_) pool->Stop();
    });
    end_time_ = stop + shape_.drain;
  }

  void TraceStart(WallClock::time_point begin) {
    if (options_.traced) {
      trace_.AddSpan("slacker", "StartMigration", begin, WallClock::now());
    }
  }

  // --- Timed phase --------------------------------------------------

  void RunTimed() {
    WallClock::time_point slice_begin = WallClock::now();
    WallClock::time_point last_probe = slice_begin;
    SimTime t = sim_.Now();
    while (end_time_ < 0.0 || t < end_time_) {
      if (end_time_ < 0.0 && t >= shape_.deadline) {
        Fail("migrations did not finish by t=" + std::to_string(shape_.deadline));
        break;
      }
      const SimTime next = t + kStep;
      if (!options_.traced) {
        events_ += sim_.RunUntil(next);
        const WallClock::time_point step_end = WallClock::now();
        timed_seconds_ += SecondsBetween(slice_begin, step_end);
        slice_begin = step_end;
      } else {
        for (int i = 1; i <= kSlicesPerStep; ++i) {
          const std::vector<SlicePhase> phases = InFlightPhases();
          SampleInstances();
          events_ += sim_.RunUntil(i == kSlicesPerStep
                                       ? next
                                       : t + kStep * i / kSlicesPerStep);
          const WallClock::time_point slice_end = WallClock::now();
          trace_.AddSlice(slice_begin, slice_end, phases);
          slice_begin = slice_end;
        }
      }
      t = next;
      // Probe blocks run between steps, outside the timed wall time, in
      // both modes, so traced and untraced steps share their cache effects.
      if (probe_ && SecondsBetween(last_probe, slice_begin) >= kProbeEvery) {
        probe_->RunBlock();
        slice_begin = last_probe = WallClock::now();
      }
    }
    if (options_.traced) timed_seconds_ = trace_.SliceSeconds();
    end_sim_ = sim_.Now();
  }

  /// Phases of the jobs in flight, read through each server's
  /// migration controller.
  std::vector<SlicePhase> InFlightPhases() {
    std::vector<SlicePhase> phases;
    for (int s = 0; s < shape_.servers; ++s) {
      slacker::Server* server = cluster_->server(s);
      slacker::MigrationController* controller = server->controller();
      if (controller == nullptr || controller->active_jobs() == 0) continue;
      for (uint64_t tenant_id : server->tenants()->TenantIds()) {
        if (slacker::MigrationJob* job = controller->ActiveJob(tenant_id)) {
          phases.push_back(SlicePhaseOf(job->phase()));
        }
      }
    }
    return phases;
  }

  /// Samples every instance's counters so that a source retired by a
  /// handover still counts (traced runs; sampled at slice boundaries).
  void SampleInstances() {
    ++pass_;
    for (int s = 0; s < shape_.servers; ++s) {
      slacker::Server* server = cluster_->server(s);
      for (uint64_t tenant_id : server->tenants()->TenantIds()) {
        slacker::engine::TenantDb* db = server->tenants()->Get(tenant_id);
        InstanceCounters& entry =
            instances_[{static_cast<uint64_t>(s), tenant_id}];
        if (entry.db != nullptr && entry.db != db) Retire(entry);
        entry.db = db;
        entry.pass = pass_;
        entry.ops = db->ops_executed();
        entry.hits = db->buffer_pool()->hits();
        entry.misses = db->buffer_pool()->misses();
      }
    }
    for (auto it = instances_.begin(); it != instances_.end();) {
      if (it->second.pass != pass_) {
        Retire(it->second);
        it = instances_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void Retire(const InstanceCounters& entry) {
    retired_.ops += entry.ops;
    retired_.hits += entry.hits;
    retired_.misses += entry.misses;
  }

  void ResetDiskEpochs() {
    for (int s = 0; s < shape_.servers; ++s) {
      slacker::resource::DiskModel* disk = cluster_->server(s)->disk();
      DiskTally& tally = disks_[s];
      tally.busy_seconds += disk->Utilization() * (sim_.Now() - tally.epoch);
      tally.requests += disk->total_requests();
      tally.wait_sum += disk->wait_stats().sum();
      tally.wait_count += disk->wait_stats().count();
      tally.epoch = sim_.Now();
      disk->ResetStats();
    }
  }

  // --- End-of-run checks --------------------------------------------

  void Audit() {
    for (size_t p = 0; p < pools_.size(); ++p) {
      const slacker::workload::ClientPool& pool = *pools_[p];
      if (pool.running() || pool.queue_depth() != 0 || pool.busy_clients() != 0) {
        Fail("client pool of tenant " + std::to_string(pool_tenants_[p]) +
             " did not drain");
      }
    }
    for (int s = 0; s < shape_.servers; ++s) {
      slacker::MigrationController* controller = cluster_->server(s)->controller();
      if (controller != nullptr && controller->active_jobs() != 0) {
        Fail("server " + std::to_string(s) + " still has a job in flight");
      }
    }
    if (reports_.empty()) Fail("no migration ran");
    for (const MigrationReport& report : reports_) {
      if (!report.status.ok() || !report.digest_match) {
        Fail("migration of tenant " + std::to_string(report.tenant_id) +
             " ended " + report.status.ToString() +
             (report.digest_match ? "" : " without a digest match"));
      }
    }
    for (int i = 0; i < shape_.tenants; ++i) {
      const Status coverage =
          cluster_->range_directory()->ValidateCoverage(static_cast<uint64_t>(i) + 1);
      if (!coverage.ok()) Fail("range coverage: " + coverage.ToString());
    }
    if (cluster_->auditor()->checks_passed() <= checks_before_) {
      Fail("the invariant auditor ran no checks");
    }

    const WallClock::time_point ledger_begin = WallClock::now();
    uint64_t mismatched = 0;
    for (size_t p = 0; p < pools_.size(); ++p) {
      const uint64_t tenant_id = pool_tenants_[p];
      for (const auto& [key, acked] : pools_[p]->acked_writes()) {
        slacker::engine::TenantDb* owner = cluster_->ResolveForKey(tenant_id, key);
        const slacker::storage::Record* row =
            owner == nullptr ? nullptr : owner->table().Get(key);
        const bool ok = acked.deleted ? row == nullptr
                                      : row != nullptr && row->digest == acked.digest;
        if (!ok) ++mismatched;
      }
    }
    if (mismatched > 0) {
      Fail(std::to_string(mismatched) + " acknowledged writes missing or wrong");
    }
    const WallClock::time_point digest_begin = WallClock::now();
    for (int s = 0; s < shape_.servers; ++s) {
      slacker::Server* server = cluster_->server(s);
      for (uint64_t tenant_id : server->tenants()->TenantIds()) {
        state_digests_.push_back(server->tenants()->Get(tenant_id)->StateDigest());
      }
    }
    if (options_.traced) {
      trace_.AddSpan("workload", "AckedWriteCheck", ledger_begin, digest_begin);
      trace_.AddSpan("storage", "StateDigest", digest_begin, WallClock::now());
    }
  }

  void Fail(std::string message) { failures_.push_back(std::move(message)); }

  // --- Metrics ------------------------------------------------------

  RunResult Collect() {
    RunResult result;
    result.failures = failures_;
    result.correct = failures_.empty();

    OutputDigest digest;
    digest.AddDouble(end_sim_);
    std::vector<double> latencies;
    uint64_t arrivals = 0, completed = 0, failed = 0, retries = 0;
    uint64_t max_queue = 0, ledger_keys = 0;
    for (const auto& pool : pools_) {
      for (const auto& point : pool->latency_series().points()) {
        digest.AddDouble(point.t);
        digest.AddDouble(point.value);
        if (point.t >= shape_.warmup) latencies.push_back(point.value);
      }
      const slacker::workload::ClientPoolStats& stats = pool->stats();
      arrivals += stats.arrivals;
      completed += stats.completed;
      failed += stats.failed;
      retries += stats.retries;
      max_queue = std::max(max_queue, stats.max_queue_depth);
      ledger_keys += pool->acked_writes().size();
    }
    std::vector<double> durations, downtimes;
    uint64_t jobs_ok = 0, range_units = 0, snapshot_bytes = 0, delta_bytes = 0;
    uint64_t delta_rounds = 0, retransmits = 0, chunks_lz = 0, ticks = 0;
    double logical = 0.0, wire = 0.0, codec_cpu = 0.0, rate_sum = 0.0;
    std::set<std::pair<uint64_t, uint64_t>> links;
    for (const MigrationReport& report : reports_) {
      digest.Add(report.tenant_id);
      digest.Add(report.source_server);
      digest.Add(report.target_server);
      digest.Add(static_cast<uint64_t>(report.status.code()));
      digest.AddDouble(report.start_time);
      digest.AddDouble(report.end_time);
      digest.AddDouble(report.downtime_ms);
      digest.Add(report.snapshot_bytes);
      digest.Add(report.delta_bytes);
      digest.Add(report.snapshot_wire_bytes);
      digest.Add(report.delta_wire_bytes);
      digest.Add(static_cast<uint64_t>(report.delta_rounds));
      digest.Add(report.digest_match ? 1 : 0);
      if (report.status.ok()) {
        ++jobs_ok;
        durations.push_back(report.DurationSeconds());
        downtimes.push_back(report.downtime_ms);
      }
      if (report.range_scoped) ++range_units;
      snapshot_bytes += report.snapshot_bytes;
      delta_bytes += report.delta_bytes;
      delta_rounds += static_cast<uint64_t>(report.delta_rounds);
      retransmits += report.chunks_retransmitted;
      chunks_lz += report.chunks_lz;
      codec_cpu += report.codec_cpu_seconds;
      logical += static_cast<double>(report.snapshot_bytes + report.delta_bytes);
      wire += static_cast<double>(report.snapshot_wire_bytes + report.delta_wire_bytes);
      for (const auto& point : report.throttle_series.points()) {
        ++ticks;
        rate_sum += point.value;
      }
      links.insert({report.source_server, report.target_server});
      links.insert({report.target_server, report.source_server});
    }
    for (const uint64_t state : state_digests_) digest.Add(state);
    result.digest = digest.value();
    result.timed_seconds = timed_seconds_;
    result.probe_ns_per_access = probe_ ? probe_->ns_per_access() : 0.0;

    if (HighestSupportedPercentile(latencies.size()) < 95.0) {
      result.correct = false;
      result.failures.push_back(std::to_string(latencies.size()) +
                                " latency samples cannot support a p95");
    }
    // A failed check fails every transaction of the run.
    result.attempted = std::max<uint64_t>(arrivals, 1);
    result.failed = result.correct ? failed : result.attempted;

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto& m = result.metrics;
    m.emplace_back("setup_s", setup_seconds_);
    m.emplace_back("sim_per_wall_adj",
                   end_sim_ / timed_seconds_ * (probe_ ? probe_->slowdown() : 1.0));
    m.emplace_back("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    m.emplace_back("txn_p50_ms", Percentile(latencies, 50.0));
    m.emplace_back("migration_s", Median(durations));
    if (!options_.traced) return result;

    SampleInstances();
    InstanceCounters engine = retired_;
    uint64_t rows = 0, binlog_bytes = 0;
    for (const auto& [where, entry] : instances_) {
      engine.ops += entry.ops;
      engine.hits += entry.hits;
      engine.misses += entry.misses;
      rows += entry.db->table().size();
      binlog_bytes += entry.db->binlog().total_bytes();
    }
    ResetDiskEpochs();
    double busy = 0.0, wait_sum = 0.0;
    uint64_t disk_requests = 0, wait_count = 0;
    for (const DiskTally& tally : disks_) {
      busy += tally.busy_seconds;
      disk_requests += tally.requests;
      wait_sum += tally.wait_sum;
      wait_count += tally.wait_count;
    }
    uint64_t link_bytes = 0, messages = 0, dropped = 0;
    for (const auto& [from, to] : links) {
      const slacker::net::Channel* channel = cluster_->ChannelBetween(from, to);
      link_bytes += channel->bytes_sent();
      messages += channel->messages_sent();
      dropped += channel->messages_dropped();
    }
    const double timed_ns = timed_seconds_ * 1e9;
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };

    m.emplace_back("sim.events", static_cast<double>(events_));
    m.emplace_back("sim.ns_per_event", ratio(timed_ns, static_cast<double>(events_)));
    m.emplace_back("workload.txns", static_cast<double>(completed));
    m.emplace_back("workload.latency_samples", static_cast<double>(latencies.size()));
    m.emplace_back("workload.txn_p95_ms", Percentile(latencies, 95.0));
    m.emplace_back("workload.retries", static_cast<double>(retries));
    m.emplace_back("workload.max_queue_depth", static_cast<double>(max_queue));
    m.emplace_back("workload.ledger_keys", static_cast<double>(ledger_keys));
    m.emplace_back("workload.failed_txn_frac",
                   ratio(static_cast<double>(failed), static_cast<double>(arrivals)));
    m.emplace_back("engine.ops", static_cast<double>(engine.ops));
    m.emplace_back("engine.ns_per_op", ratio(timed_ns, static_cast<double>(engine.ops)));
    m.emplace_back("engine.load_s", trace_.SpanSeconds("AddTenant"));
    m.emplace_back("storage.rows", static_cast<double>(rows));
    m.emplace_back("storage.bp_hit_ratio",
                   ratio(static_cast<double>(engine.hits),
                         static_cast<double>(engine.hits + engine.misses)));
    m.emplace_back("storage.bp_misses", static_cast<double>(engine.misses));
    m.emplace_back("storage.warm_s", trace_.SpanSeconds("WarmBufferPool"));
    m.emplace_back("storage.digest_s", trace_.SpanSeconds("StateDigest"));
    m.emplace_back("wal.binlog_bytes", static_cast<double>(binlog_bytes));
    m.emplace_back("resource.disk_util",
                   ratio(busy, end_sim_ * static_cast<double>(shape_.servers)));
    m.emplace_back("resource.disk_wait_ms",
                   1000.0 * ratio(wait_sum, static_cast<double>(wait_count)));
    m.emplace_back("resource.disk_requests", static_cast<double>(disk_requests));
    m.emplace_back("resource.link_bytes", static_cast<double>(link_bytes));
    m.emplace_back("net.messages", static_cast<double>(messages));
    m.emplace_back("net.dropped", static_cast<double>(dropped));
    m.emplace_back("backup.snapshot_bytes", static_cast<double>(snapshot_bytes));
    m.emplace_back("backup.delta_bytes", static_cast<double>(delta_bytes));
    m.emplace_back("backup.delta_rounds", static_cast<double>(delta_rounds));
    m.emplace_back("backup.retransmits", static_cast<double>(retransmits));
    m.emplace_back("codec.wire_ratio", ratio(logical, wire));
    m.emplace_back("codec.chunks_lz", static_cast<double>(chunks_lz));
    m.emplace_back("codec.cpu_s", codec_cpu);
    m.emplace_back("control.ticks", static_cast<double>(ticks));
    m.emplace_back("control.rate_mbps", ratio(rate_sum, static_cast<double>(ticks)));
    m.emplace_back("range.units", static_cast<double>(range_units));
    m.emplace_back("slacker.jobs_ok", static_cast<double>(jobs_ok));
    m.emplace_back("slacker.downtime_p50_ms", Median(downtimes));
    m.emplace_back("slacker.downtime_max_ms", Percentile(downtimes, 100.0));
    m.emplace_back("slacker.jobs_failed", static_cast<double>(reports_.size() - jobs_ok));
    for (size_t p = 0; p < kSlicePhaseCount; ++p) {
      const SlicePhase phase = static_cast<SlicePhase>(p);
      m.emplace_back(std::string("slacker.wall_s.") + SlicePhaseName(phase),
                     trace_.PhaseSeconds(phase));
    }
    if (!options_.trace_out.empty() && !trace_.WriteChromeJson(options_.trace_out)) {
      result.correct = false;
      result.failures.push_back("cannot write " + options_.trace_out);
    }
    return result;
  }

  RunOptions options_;
  Shape shape_;
  slacker::sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<slacker::workload::YcsbWorkload>> workloads_;
  std::vector<std::unique_ptr<slacker::workload::ClientPool>> pools_;
  std::vector<uint64_t> pool_tenants_;

  // Migration plan state.
  std::vector<std::unique_ptr<slacker::FluidMigrator>> fluid_;
  int next_fluid_index_ = 0;
  slacker::PlacementAdvisor advisor_;
  std::vector<std::pair<uint64_t, uint64_t>> ops_baseline_;
  std::set<uint64_t> busy_servers_;
  std::set<uint64_t> busy_tenants_;
  int inflight_ = 0;
  bool relief_closed_ = false;
  std::vector<MigrationReport> reports_;
  SimTime end_time_ = -1.0;

  // Measurements.
  double setup_seconds_ = 0.0;
  double timed_seconds_ = 0.0;
  std::unique_ptr<MemoryProbe> probe_;
  SimTime end_sim_ = 0.0;
  uint64_t events_ = 0;
  uint64_t checks_before_ = 0;
  std::vector<DiskTally> disks_;
  std::map<std::pair<uint64_t, uint64_t>, InstanceCounters> instances_;
  InstanceCounters retired_;
  uint64_t pass_ = 0;
  std::vector<uint64_t> state_digests_;
  std::vector<std::string> failures_;
  WallTrace trace_;
};

}  // namespace

bool ParseWorkload(std::string_view name, Workload* workload) {
  if (name == "fleet_writes") {
    *workload = Workload::kFleetWrites;
  } else if (name == "fleet_reads") {
    *workload = Workload::kFleetReads;
  } else if (name == "bulk_codec") {
    *workload = Workload::kBulkCodec;
  } else {
    return false;
  }
  return true;
}

double RunResult::Metric(std::string_view name) const {
  for (const auto& [metric, value] : metrics) {
    if (metric == name) return value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

RunResult RunWorkload(const RunOptions& options) {
  return Bench(options).Run();
}

}  // namespace perfbench
