#ifndef PERFBENCH_WALL_TRACE_H_
#define PERFBENCH_WALL_TRACE_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/slacker/options.h"

namespace perfbench {

using WallClock = std::chrono::steady_clock;

double SecondsBetween(WallClock::time_point begin, WallClock::time_point end);

/// What the migration machinery was doing during a slice of the timed
/// phase. Negotiation is folded into the snapshot (it opens the copy);
/// a slice with no job in flight is idle.
enum class SlicePhase { kIdle, kSnapshot, kPrepare, kDelta, kHandover };
inline constexpr size_t kSlicePhaseCount = 5;

const char* SlicePhaseName(SlicePhase phase);
SlicePhase SlicePhaseOf(slacker::MigrationPhase phase);

/// One closed wall-clock interval around a call the benchmark made into
/// a layer. `layer` names the src/ module the call enters.
struct WallSpan {
  std::string layer;
  std::string name;
  WallClock::time_point begin;
  WallClock::time_point end;
  /// Phases of the jobs in flight (RunUntil slices only).
  std::string phases;
};

/// Spans of one traced run, kept in memory and written out at exit.
/// The timed phase is cut into contiguous RunUntil slices; each slice's
/// wall time is shared equally among the jobs in flight when it began,
/// and goes to idle when there were none, so the per-phase seconds add
/// up to the slices' total exactly.
class WallTrace {
 public:
  void AddSpan(std::string layer, std::string name,
               WallClock::time_point begin, WallClock::time_point end);
  /// Records one RunUntil slice; `phases` holds one entry per job that
  /// was in flight when the slice began.
  void AddSlice(WallClock::time_point begin, WallClock::time_point end,
                const std::vector<SlicePhase>& phases);

  /// Total seconds of the spans named `name` (slices excluded).
  double SpanSeconds(std::string_view name) const;
  double PhaseSeconds(SlicePhase phase) const {
    return phase_seconds_[static_cast<size_t>(phase)];
  }
  double SliceSeconds() const { return slice_seconds_; }
  size_t slice_count() const { return slice_count_; }

  /// Writes every span as a Chrome trace-event JSON file.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<WallSpan> spans_;
  std::array<double, kSlicePhaseCount> phase_seconds_{};
  double slice_seconds_ = 0.0;
  size_t slice_count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WALL_TRACE_H_
