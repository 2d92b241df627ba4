#ifndef SLACKER_FORECAST_TROUGH_SCHEDULER_H_
#define SLACKER_FORECAST_TROUGH_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/forecast/cost_model.h"
#include "src/obs/trace.h"

namespace slacker::forecast {

struct TroughSchedulerOptions {
  /// How far ahead candidate start times are searched.
  SimTime horizon_seconds = 900.0;
  /// Candidate spacing inside the horizon.
  SimTime candidate_stride = 15.0;
  /// Hard bound on deferral: work submitted at t is forced runnable by
  /// t + fallback_deadline even if no trough ever arrives.
  SimTime fallback_deadline = 900.0;

  Status Validate() const;
};

/// A unit of deferrable work (one planned migration, or one upgrade
/// wave's drain). `key` identifies the work across repeated Decide
/// calls — the first call pins the schedule (start + deadline), later
/// calls report it.
struct WorkRequest {
  uint64_t key = 0;
  uint64_t tenant_id = 0;
  uint64_t source_server = 0;
  uint64_t target_server = 0;
  /// Extra servers priced into every candidate (upgrade waves).
  std::vector<uint64_t> extra_servers;
  uint64_t data_bytes = 0;
  /// "consolidation", "drain", "upgrade-wave", ... (trace vocabulary).
  std::string kind;
  /// Urgent work is never deferred: Decide returns run-now
  /// unconditionally (relief migrations).
  bool urgent = false;
};

struct ScheduleDecision {
  bool run_now = true;
  /// When the work should start (== the Decide time when run_now).
  SimTime scheduled_start = 0.0;
  /// Hard deferral bound carried by the deferred plan.
  SimTime deadline = 0.0;
  /// Predicted violation server-seconds of starting now vs at the
  /// scheduled start (equal when run_now).
  double cost_now = 0.0;
  double cost_scheduled = 0.0;
  /// "urgent", "no-forecast", "no-better-trough", "trough-start",
  /// "deadline", "trough-wait".
  std::string reason;
};

/// Assigns non-urgent work into predicted load troughs under deadlines:
/// candidate start times across the horizon are priced with the
/// migration cost model, and the cheapest (earliest on ties) wins. A
/// pinned schedule is sticky — the work runs at its scheduled start or
/// its fallback deadline, whichever comes first — so a drifting
/// forecast cannot starve work forever. Urgent work always runs now.
class TroughScheduler {
 public:
  /// `model` must outlive the scheduler. `tracer` (nullable) receives
  /// TroughScheduled events; fetched lazily so benches installing the
  /// tracer later still trace.
  TroughScheduler(const MigrationCostModel* model,
                  TroughSchedulerOptions options,
                  std::function<obs::Tracer*()> tracer = nullptr);

  /// The scheduling verdict for `work` at time `now`. Deterministic:
  /// the same call sequence yields the same decisions.
  ScheduleDecision Decide(const WorkRequest& work, SimTime now);

  /// The work launched (or its plan vanished): forget the pinned
  /// schedule so a future plan for the same key is re-priced fresh.
  void Complete(uint64_t key);

  /// Drops pinned schedules whose deadline passed more than
  /// `grace_seconds` ago without launching (their plans evaporated).
  void Prune(SimTime now, SimTime grace_seconds = 300.0);

  size_t pending() const { return pending_.size(); }
  const TroughSchedulerOptions& options() const { return options_; }

  /// Counters for benches/tests.
  struct Stats {
    uint64_t decided_now = 0;
    uint64_t scheduled = 0;
    uint64_t held = 0;
    uint64_t released_trough = 0;
    uint64_t released_deadline = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct PinnedWork {
    SimTime submitted = 0.0;
    SimTime scheduled_start = 0.0;
    SimTime deadline = 0.0;
    double cost_now = 0.0;
    double cost_scheduled = 0.0;
  };

  const MigrationCostModel* model_;
  TroughSchedulerOptions options_;
  std::function<obs::Tracer*()> tracer_;
  /// key -> pinned schedule (ordered: determinism under iteration).
  std::map<uint64_t, PinnedWork> pending_;
  Stats stats_;
};

}  // namespace slacker::forecast

#endif  // SLACKER_FORECAST_TROUGH_SCHEDULER_H_
