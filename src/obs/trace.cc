#include "src/obs/trace.h"

namespace slacker::obs {

TraceSpan::TraceSpan(Tracer* tracer, std::string_view track,
                     std::string_view name, std::string_view category) {
  if (tracer == nullptr) return;
  tracer_ = tracer;
  record_.track = track;
  record_.name = name;
  record_.category = category;
  record_.begin = tracer->NowSim();
}

TraceSpan::TraceSpan(TraceSpan&& other) noexcept
    : tracer_(other.tracer_), record_(std::move(other.record_)) {
  other.tracer_ = nullptr;
}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    record_ = std::move(other.record_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void TraceSpan::AddArg(std::string_view key, double value) {
  if (tracer_ == nullptr) return;
  record_.args.emplace_back(std::string(key), value);
}

void TraceSpan::AddNote(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  record_.notes.emplace_back(std::string(key), std::string(value));
}

void TraceSpan::End() {
  if (tracer_ == nullptr) return;
  record_.end = tracer_->NowSim();
  tracer_->RecordSpan(std::move(record_));
  tracer_ = nullptr;
}

}  // namespace slacker::obs
