#ifndef SLACKER_RESOURCE_CPU_H_
#define SLACKER_RESOURCE_CPU_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/ring_deque.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace slacker::resource {

struct CpuOptions {
  /// Number of cores (the paper's testbed is a quad-core Xeon).
  int cores = 4;
};

/// Multi-server FIFO CPU: up to `cores` jobs execute concurrently,
/// later arrivals queue. Used for per-operation query processing cost
/// and for backup prepare/apply work.
class CpuModel {
 public:
  CpuModel(sim::Simulator* sim, CpuOptions options);

  CpuModel(const CpuModel&) = delete;
  CpuModel& operator=(const CpuModel&) = delete;

  /// Runs a job needing `service` seconds of one core; `done` fires on
  /// completion.
  void Submit(SimTime service, sim::Callback<void()> done);

  int busy_cores() const {
    return options_.cores - static_cast<int>(idle_cores_.size());
  }
  int cores() const { return options_.cores; }
  size_t queued() const { return queue_.size(); }
  double Utilization() const;
  void ResetStats();

 private:
  struct Job {
    SimTime service = 0.0;
    sim::Callback<void()> done;
  };

  /// The completion event captures only `core`; the job's callback
  /// waits in running_[core] instead of inside the event.
  void StartJob(uint32_t core, Job job);

  sim::Simulator* sim_;
  CpuOptions options_;
  std::vector<uint32_t> idle_cores_;
  std::vector<sim::Callback<void()>> running_;
  RingDeque<Job> queue_;
  SimTime core_busy_time_ = 0.0;
  SimTime stats_epoch_ = 0.0;
};

}  // namespace slacker::resource

#endif  // SLACKER_RESOURCE_CPU_H_
