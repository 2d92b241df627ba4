#include "src/slacker/fleet_load_sampler.h"

#include <cmath>
#include <string>

#include "src/obs/events.h"
#include "src/slacker/cluster.h"

namespace slacker {
namespace {

/// Confidence-band width (z * mae * sqrt(h)) for PredictLoadUpper.
constexpr double kBandZ = 2.0;

}  // namespace

Status ForecastOptions::Validate() const {
  if (bucket_seconds <= 0.0) {
    return Status::InvalidArgument("bucket_seconds must be positive");
  }
  if (history_buckets < 4) {
    return Status::InvalidArgument("history_buckets must be >= 4");
  }
  if (seconds_per_op <= 0.0) {
    return Status::InvalidArgument("seconds_per_op must be positive");
  }
  if (redetect_buckets < 1) {
    return Status::InvalidArgument("redetect_buckets must be >= 1");
  }
  if (history_buckets <
      static_cast<size_t>(2 * cycle.max_period_buckets)) {
    return Status::InvalidArgument(
        "history_buckets must cover 2x the max candidate period");
  }
  SLACKER_RETURN_IF_ERROR(cycle.Validate());
  return Status::Ok();
}

FleetLoadSampler::FleetLoadSampler(Cluster* cluster, ForecastOptions options)
    : cluster_(cluster),
      sim_(cluster->simulator()),
      options_(options),
      detector_(options.cycle) {
  servers_.reserve(cluster->num_servers());
  for (size_t i = 0; i < cluster->num_servers(); ++i) {
    servers_.push_back(std::make_unique<ServerState>(options_));
  }
}

FleetLoadSampler::~FleetLoadSampler() { Stop(); }

Status FleetLoadSampler::Start() {
  SLACKER_RETURN_IF_ERROR(options_.Validate());
  if (running_) return Status::FailedPrecondition("sampler already running");
  epoch_ = sim_->Now();
  buckets_sampled_ = 0;
  // Fresh ops baseline so the first bucket observes exactly one bucket
  // of throughput.
  ops_baseline_.clear();
  for (uint64_t sid = 0; sid < cluster_->num_servers(); ++sid) {
    for (uint64_t tenant_id : cluster_->directory()->TenantsOn(sid)) {
      if (const engine::TenantDb* db = cluster_->TenantOn(sid, tenant_id)) {
        ops_baseline_[tenant_id] = db->ops_executed();
      }
    }
  }
  timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, options_.bucket_seconds, [this](SimTime now) { OnBucket(now); });
  timer_->Start();
  running_ = true;
  return Status::Ok();
}

void FleetLoadSampler::Stop() {
  running_ = false;
  if (timer_ != nullptr) timer_->Stop();
}

int64_t FleetLoadSampler::BucketIndexAt(SimTime t) const {
  const double rel = (t - epoch_) / options_.bucket_seconds;
  if (rel <= 0.0) return 0;
  return static_cast<int64_t>(rel);
}

void FleetLoadSampler::OnBucket(SimTime now) {
  ++buckets_sampled_;
  // Per-tenant throughput deltas, walked in (server id, tenant id)
  // order; aggregate each server's normalized load as it goes.
  for (uint64_t sid = 0; sid < cluster_->num_servers(); ++sid) {
    double ops_per_sec = 0.0;
    for (uint64_t tenant_id : cluster_->directory()->TenantsOn(sid)) {
      uint64_t delta = 0;
      // No live instance (mid-handover, crashed): zero throughput for
      // the bucket, baseline kept.
      if (const engine::TenantDb* db = cluster_->TenantOn(sid, tenant_id)) {
        const uint64_t total = db->ops_executed();
        const auto it = ops_baseline_.find(tenant_id);
        const uint64_t prev = it == ops_baseline_.end() ? 0 : it->second;
        // A counter that moved backwards means the tenant was rebuilt
        // (migration handover, crash recovery): restart the baseline.
        delta = total >= prev ? total - prev : total;
        ops_baseline_[tenant_id] = total;
      }
      const double rate =
          static_cast<double>(delta) / options_.bucket_seconds;
      ops_per_sec += rate;
      auto ring_it = tenants_.find(tenant_id);
      if (ring_it == tenants_.end()) {
        ring_it = tenants_
                      .emplace(tenant_id,
                               std::make_unique<forecast::SampleRing>(
                                   options_.history_buckets))
                      .first;
      }
      ring_it->second->Push(rate);
    }

    ServerState& state = *servers_[sid];
    const double load = ops_per_sec * options_.seconds_per_op;
    state.ring.Push(load);
    if (state.model.seeded() &&
        state.model.next_bucket() + 1 == state.ring.total_pushed()) {
      state.model.Observe(load);
    }

    if (buckets_sampled_ % static_cast<uint64_t>(options_.redetect_buckets) ==
        0) {
      state.cycle = detector_.Detect(state.ring);
      if (state.cycle.periodic) {
        const int season =
            state.model.seeded() ? state.model.season_buckets() : 0;
        const int diff = season - state.cycle.period_buckets;
        // Hysteresis: a +/-1 bucket wobble in the detected period is
        // estimation noise on a noisy series — reseeding on it would
        // throw away the fitted seasonal state and reset the error
        // estimate every redetect. Only adopt a decisively new period.
        // Seed failure (insufficient history) just means we stay
        // unseeded until the next detection pass.
        if (!state.model.seeded() || diff > 1 || diff < -1) {
          (void)state.model.Seed(state.cycle.period_buckets, state.ring);
        }
      }
      EmitForecastUpdated(sid, state, now);
    }
  }
}

bool FleetLoadSampler::Ready(uint64_t server_id) const {
  if (server_id >= servers_.size()) return false;
  const ServerState& state = *servers_[server_id];
  return state.cycle.periodic && state.model.seeded();
}

double FleetLoadSampler::CurrentLoad(uint64_t server_id) const {
  if (server_id >= servers_.size()) return 0.0;
  const forecast::SampleRing& ring = servers_[server_id]->ring;
  return ring.size() == 0 ? 0.0 : ring.back();
}

double FleetLoadSampler::PredictLoad(uint64_t server_id, SimTime t) const {
  if (!Ready(server_id)) return CurrentLoad(server_id);
  const ServerState& state = *servers_[server_id];
  const int64_t last =
      static_cast<int64_t>(state.model.next_bucket()) - 1;
  int64_t h = BucketIndexAt(t) - last;
  if (h < 1) h = 1;
  const double predicted = state.model.Forecast(static_cast<int>(h));
  return predicted < 0.0 ? 0.0 : predicted;
}

double FleetLoadSampler::PredictLoadUpper(uint64_t server_id,
                                          SimTime t) const {
  if (!Ready(server_id)) return CurrentLoad(server_id);
  const ServerState& state = *servers_[server_id];
  const int64_t last =
      static_cast<int64_t>(state.model.next_bucket()) - 1;
  int64_t h = BucketIndexAt(t) - last;
  if (h < 1) h = 1;
  return state.model.ForecastBand(static_cast<int>(h), kBandZ).hi;
}

const forecast::CycleEstimate& FleetLoadSampler::cycle(
    uint64_t server_id) const {
  SLACKER_CHECK(server_id < servers_.size(), "bad server id");
  return servers_[server_id]->cycle;
}

const forecast::SampleRing& FleetLoadSampler::server_ring(
    uint64_t server_id) const {
  SLACKER_CHECK(server_id < servers_.size(), "bad server id");
  return servers_[server_id]->ring;
}

const forecast::SampleRing* FleetLoadSampler::tenant_ring(
    uint64_t tenant_id) const {
  const auto it = tenants_.find(tenant_id);
  return it == tenants_.end() ? nullptr : it->second.get();
}

SimTime FleetLoadSampler::NextTroughStart(uint64_t server_id,
                                          SimTime now) const {
  if (server_id >= servers_.size()) return now;
  const forecast::CycleEstimate& cycle = servers_[server_id]->cycle;
  if (!cycle.periodic) return now;
  const int period = cycle.period_buckets;
  int64_t bucket = BucketIndexAt(now);
  for (int i = 0; i < period; ++i, ++bucket) {
    if (static_cast<int>(bucket % period) == cycle.trough_phase) {
      const SimTime start =
          epoch_ + static_cast<double>(bucket) * options_.bucket_seconds;
      return start < now ? now : start;
    }
  }
  return now;
}

void FleetLoadSampler::EmitForecastUpdated(uint64_t server_id,
                                           const ServerState& state,
                                           SimTime now) {
  obs::Tracer* tracer = cluster_->tracer();
  if (tracer == nullptr) return;
  const std::string label = "server=" + std::to_string(server_id);
  tracer->registry()
      ->FindOrCreateGauge("forecast_mae", label)
      ->Set(state.model.seeded() ? state.model.mean_abs_error() : 0.0);
  tracer->registry()
      ->FindOrCreateGauge("forecast_period_s", label)
      ->Set(state.cycle.periodic
                ? state.cycle.period_buckets * options_.bucket_seconds
                : 0.0);

  obs::ForecastUpdated e;
  e.server_id = server_id;
  e.periodic = state.cycle.periodic;
  e.period_seconds = state.cycle.period_buckets * options_.bucket_seconds;
  e.trough_phase_seconds =
      state.cycle.trough_phase * options_.bucket_seconds;
  e.confidence = state.cycle.confidence;
  e.current_load = CurrentLoad(server_id);
  e.predicted_load =
      state.model.seeded() ? PredictLoad(server_id, now) : 0.0;
  e.mean_abs_error =
      state.model.seeded() ? state.model.mean_abs_error() : 0.0;
  e.next_trough_start = NextTroughStart(server_id, now);
  obs::EmitForecastUpdated(tracer, e);
}

}  // namespace slacker
