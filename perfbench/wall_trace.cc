#include "perfbench/wall_trace.h"

#include <cstdio>

namespace perfbench {

double SecondsBetween(WallClock::time_point begin, WallClock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

const char* SlicePhaseName(SlicePhase phase) {
  switch (phase) {
    case SlicePhase::kIdle:
      return "idle";
    case SlicePhase::kSnapshot:
      return "snapshot";
    case SlicePhase::kPrepare:
      return "prepare";
    case SlicePhase::kDelta:
      return "delta";
    case SlicePhase::kHandover:
      return "handover";
  }
  return "idle";
}

SlicePhase SlicePhaseOf(slacker::MigrationPhase phase) {
  switch (phase) {
    case slacker::MigrationPhase::kNegotiate:
    case slacker::MigrationPhase::kSnapshot:
      return SlicePhase::kSnapshot;
    case slacker::MigrationPhase::kPrepare:
      return SlicePhase::kPrepare;
    case slacker::MigrationPhase::kDelta:
      return SlicePhase::kDelta;
    case slacker::MigrationPhase::kHandover:
      return SlicePhase::kHandover;
    case slacker::MigrationPhase::kDone:
    case slacker::MigrationPhase::kFailed:
      return SlicePhase::kIdle;
  }
  return SlicePhase::kIdle;
}

void WallTrace::AddSpan(std::string layer, std::string name,
                        WallClock::time_point begin,
                        WallClock::time_point end) {
  spans_.push_back(
      WallSpan{std::move(layer), std::move(name), begin, end, std::string()});
}

void WallTrace::AddSlice(WallClock::time_point begin, WallClock::time_point end,
                         const std::vector<SlicePhase>& phases) {
  const double seconds = SecondsBetween(begin, end);
  slice_seconds_ += seconds;
  ++slice_count_;
  std::string label;
  if (phases.empty()) {
    phase_seconds_[static_cast<size_t>(SlicePhase::kIdle)] += seconds;
    label = "idle";
  } else {
    const double share = seconds / static_cast<double>(phases.size());
    for (const SlicePhase phase : phases) {
      phase_seconds_[static_cast<size_t>(phase)] += share;
      if (!label.empty()) label += ",";
      label += SlicePhaseName(phase);
    }
  }
  spans_.push_back(WallSpan{"sim", "RunUntil", begin, end, std::move(label)});
}

double WallTrace::SpanSeconds(std::string_view name) const {
  double total = 0.0;
  for (const WallSpan& span : spans_) {
    if (span.name == name) total += SecondsBetween(span.begin, span.end);
  }
  return total;
}

bool WallTrace::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const WallClock::time_point origin =
      spans_.empty() ? WallClock::time_point() : spans_.front().begin;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const WallSpan& span = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"phases\": \"%s\"}}",
                 i == 0 ? "" : ",\n", span.name.c_str(), span.layer.c_str(),
                 span.layer.c_str(), 1e6 * SecondsBetween(origin, span.begin),
                 1e6 * SecondsBetween(span.begin, span.end),
                 span.phases.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
