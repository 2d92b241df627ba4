#include "src/resource/disk.h"

#include <utility>

namespace slacker::resource {

DiskModel::DiskModel(sim::Simulator* sim, DiskOptions options,
                     std::string name)
    : sim_(sim), options_(options), name_(std::move(name)) {}

SimTime DiskModel::ServiceTime(IoKind kind, uint64_t bytes,
                               uint64_t stream_id) const {
  const SimTime transfer =
      static_cast<double>(bytes) / options_.transfer_bytes_per_sec;
  if (!IsSequential(kind)) return options_.seek_time + transfer;
  // A sequential request continues without a seek only if the head is
  // still where this stream left it.
  const bool head_in_place = last_was_sequential_ && last_stream_ == stream_id;
  return (head_in_place ? 0.0 : options_.seek_time) + transfer;
}

void DiskModel::Submit(IoKind kind, uint64_t bytes, sim::Callback<void()> done,
                       uint64_t stream_id) {
  queue_.push_back(Request{kind, bytes, stream_id, sim_->Now(),
                           std::move(done)});
  if (!busy_) StartNext();
}

void DiskModel::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Request request = std::move(queue_.front());
  queue_.pop_front();

  const SimTime service = ServiceTime(request.kind, request.bytes,
                                      request.stream_id);
  last_stream_ = request.stream_id;
  last_was_sequential_ = IsSequential(request.kind);

  busy_time_ += service;
  ++total_requests_;
  if (IsRead(request.kind)) {
    bytes_read_ += request.bytes;
  } else {
    bytes_written_ += request.bytes;
  }
  wait_stats_.Add(sim_->Now() - request.submitted);

  in_service_ = std::move(request.done);
  sim_->After(service, [this] {
    sim::Callback<void()> done = std::move(in_service_);
    if (done) done();
    StartNext();
  });
}

double DiskModel::Utilization() const {
  const SimTime elapsed = sim_->Now() - stats_epoch_;
  if (elapsed <= 0.0) return 0.0;
  double util = busy_time_ / elapsed;
  return util > 1.0 ? 1.0 : util;
}

void DiskModel::ResetStats() {
  busy_time_ = 0.0;
  stats_epoch_ = sim_->Now();
  total_requests_ = 0;
  bytes_read_ = 0;
  bytes_written_ = 0;
  wait_stats_.Reset();
}

}  // namespace slacker::resource
