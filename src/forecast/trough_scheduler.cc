#include "src/forecast/trough_scheduler.h"

#include <utility>

#include "src/common/invariant.h"
#include "src/obs/events.h"

namespace slacker::forecast {
namespace {

/// Defer only when the best candidate saves at least this many
/// predicted violation server-seconds over starting now — a marginal
/// saving is not worth sitting on work.
constexpr double kMinSavingSeconds = 1.0;

}  // namespace

Status TroughSchedulerOptions::Validate() const {
  if (horizon_seconds <= 0.0) {
    return Status::InvalidArgument("horizon_seconds must be positive");
  }
  if (candidate_stride <= 0.0 || candidate_stride > horizon_seconds) {
    return Status::InvalidArgument(
        "candidate_stride must be in (0, horizon]");
  }
  if (fallback_deadline <= 0.0) {
    return Status::InvalidArgument("fallback_deadline must be positive");
  }
  return Status::Ok();
}

TroughScheduler::TroughScheduler(const MigrationCostModel* model,
                                 TroughSchedulerOptions options,
                                 std::function<obs::Tracer*()> tracer)
    : model_(model), options_(options), tracer_(std::move(tracer)) {
  SLACKER_CHECK(model != nullptr, "scheduler needs a cost model");
}

ScheduleDecision TroughScheduler::Decide(const WorkRequest& work,
                                         SimTime now) {
  ScheduleDecision decision;
  decision.scheduled_start = now;
  decision.deadline = now + options_.fallback_deadline;

  if (work.urgent) {
    ++stats_.decided_now;
    decision.reason = "urgent";
    return decision;
  }

  // A pinned schedule is sticky: report it until start or deadline.
  const auto pinned = pending_.find(work.key);
  if (pinned != pending_.end()) {
    const PinnedWork& p = pinned->second;
    decision.scheduled_start = p.scheduled_start;
    decision.deadline = p.deadline;
    decision.cost_now = p.cost_now;
    decision.cost_scheduled = p.cost_scheduled;
    if (now >= p.deadline) {
      decision.run_now = true;
      decision.reason = "deadline";
      ++stats_.released_deadline;
      return decision;
    }
    if (now + 1e-9 >= p.scheduled_start) {
      decision.run_now = true;
      decision.reason = "trough-start";
      ++stats_.released_trough;
      return decision;
    }
    decision.run_now = false;
    decision.reason = "trough-wait";
    ++stats_.held;
    return decision;
  }

  // Servers this work touches; without a forecast for all of them the
  // scheduler has nothing to plan with — run reactively.
  std::vector<uint64_t> ends;
  ends.push_back(work.source_server);
  if (work.target_server != work.source_server) {
    ends.push_back(work.target_server);
  }
  const LoadPredictor* predictor = model_->predictor();
  for (uint64_t id : ends) {
    if (!predictor->Ready(id)) {
      ++stats_.decided_now;
      decision.reason = "no-forecast";
      return decision;
    }
  }

  // Price candidate starts across the horizon (never past the
  // deadline); cheapest wins, earliest on ties.
  const SimTime deadline = now + options_.fallback_deadline;
  SimTime last_candidate = now + options_.horizon_seconds;
  if (last_candidate > deadline) last_candidate = deadline;
  MigrationCostEstimate best;
  bool have_best = false;
  MigrationCostEstimate now_cost;
  for (SimTime t = now; t <= last_candidate + 1e-9;
       t += options_.candidate_stride) {
    const MigrationCostEstimate cost =
        model_->PriceServers(ends, work.data_bytes, t);
    if (t <= now + 1e-9) now_cost = cost;
    if (!have_best || cost.violation_seconds < best.violation_seconds) {
      have_best = true;
      best = cost;
    }
  }
  decision.cost_now = now_cost.violation_seconds;
  decision.cost_scheduled = best.violation_seconds;
  decision.deadline = deadline;

  const double saving = now_cost.violation_seconds - best.violation_seconds;
  if (!have_best || best.start <= now + 1e-9 ||
      saving < kMinSavingSeconds) {
    ++stats_.decided_now;
    decision.reason = "no-better-trough";
    return decision;
  }

  PinnedWork p;
  p.submitted = now;
  p.scheduled_start = best.start;
  p.deadline = deadline;
  p.cost_now = now_cost.violation_seconds;
  p.cost_scheduled = best.violation_seconds;
  pending_.emplace(work.key, p);
  ++stats_.scheduled;
  ++stats_.held;

  decision.run_now = false;
  decision.scheduled_start = best.start;
  decision.reason = "trough-wait";

  if (tracer_) {
    obs::TroughScheduled e;
    e.tenant_id = work.tenant_id;
    e.source_server = work.source_server;
    e.target_server = work.target_server;
    e.kind = work.kind;
    e.scheduled_start = best.start;
    e.deadline = deadline;
    e.cost_now = now_cost.violation_seconds;
    e.cost_scheduled = best.violation_seconds;
    obs::EmitTroughScheduled(tracer_(), e);
  }
  return decision;
}

void TroughScheduler::Complete(uint64_t key) { pending_.erase(key); }

void TroughScheduler::Prune(SimTime now, SimTime grace_seconds) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now > it->second.deadline + grace_seconds) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace slacker::forecast
