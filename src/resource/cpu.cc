#include "src/resource/cpu.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace slacker::resource {

CpuModel::CpuModel(sim::Simulator* sim, CpuOptions options)
    : sim_(sim),
      options_(options),
      idle_cores_(std::max(options.cores, 0)),
      running_(idle_cores_.size()) {
  std::iota(idle_cores_.begin(), idle_cores_.end(), 0u);
}

void CpuModel::Submit(SimTime service, sim::Callback<void()> done) {
  if (idle_cores_.empty()) {
    queue_.push_back(Job{service, std::move(done)});
    return;
  }
  const uint32_t core = idle_cores_.back();
  idle_cores_.pop_back();
  StartJob(core, Job{service, std::move(done)});
}

void CpuModel::StartJob(uint32_t core, Job job) {
  core_busy_time_ += job.service;
  running_[core] = std::move(job.done);
  sim_->After(job.service, [this, core] {
    sim::Callback<void()> done = std::move(running_[core]);
    if (queue_.empty()) {
      idle_cores_.push_back(core);
    } else {
      Job next = std::move(queue_.front());
      queue_.pop_front();
      StartJob(core, std::move(next));
    }
    if (done) done();
  });
}

double CpuModel::Utilization() const {
  const SimTime elapsed = sim_->Now() - stats_epoch_;
  if (elapsed <= 0.0) return 0.0;
  const double capacity = elapsed * options_.cores;
  double util = core_busy_time_ / capacity;
  return util > 1.0 ? 1.0 : util;
}

void CpuModel::ResetStats() {
  core_busy_time_ = 0.0;
  stats_epoch_ = sim_->Now();
}

}  // namespace slacker::resource
