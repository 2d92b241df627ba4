#ifndef SLACKER_OBS_TRACE_H_
#define SLACKER_OBS_TRACE_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metric_registry.h"

namespace slacker::obs {

/// One closed span: a named interval of simulated time on a track
/// (tracks become rows in the Chrome trace viewer — one per server,
/// migration, or supervisor).
struct SpanRecord {
  std::string track;
  std::string name;
  std::string category;
  SimTime begin = 0.0;
  SimTime end = 0.0;
  /// Numeric attributes (bytes, rates, PID terms...).
  std::vector<std::pair<std::string, double>> args;
  /// String attributes (status, policy name...).
  std::vector<std::pair<std::string, std::string>> notes;
};

enum class EventKind {
  /// Point-in-time marker (throttle change, fault, SLA violation).
  kInstant,
  /// Sampled counter value — the Chrome viewer draws these as graphs.
  kCounter,
};

/// One structured event.
struct Event {
  EventKind kind = EventKind::kInstant;
  std::string track;
  std::string name;
  std::string category;
  SimTime time = 0.0;
  std::vector<std::pair<std::string, double>> args;
  std::vector<std::pair<std::string, std::string>> notes;
};

class Tracer;

/// RAII span handle. Opens at construction (reading the tracer's
/// sim-time clock), closes at destruction, explicit End(), or move
/// assignment over it. A default-constructed span, one built against a
/// null tracer, or one built while the tracer is disabled is *inert*:
/// every method is a no-op, no string is copied, nothing allocates —
/// cheap enough to leave instrumentation compiled in unconditionally.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(Tracer* tracer, std::string_view track, std::string_view name,
            std::string_view category = "span");
  ~TraceSpan() { End(); }

  TraceSpan(TraceSpan&& other) noexcept;
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void AddArg(std::string_view key, double value);
  void AddNote(std::string_view key, std::string_view value);

  /// Closes the span now (idempotent; the destructor calls it too).
  void End();

  bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_ = nullptr;
  SpanRecord record_;
};

/// Sim-time trace recorder: nested spans, typed instant events, and a
/// metric registry, all timestamped from a caller-supplied clock (the
/// simulator's Now). Call sites hold a `Tracer*` that is null by
/// default — observability is off unless a harness installs a tracer.
class Tracer {
 public:
  using Clock = std::function<SimTime()>;

  explicit Tracer(Clock clock) : clock_(std::move(clock)) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  SimTime NowSim() const { return clock_(); }

  void RecordSpan(SpanRecord record) { spans_.push_back(std::move(record)); }
  void RecordEvent(Event event) { events_.push_back(std::move(event)); }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<Event>& events() const { return events_; }

  MetricRegistry* registry() { return &registry_; }
  const MetricRegistry& registry() const { return registry_; }

  /// Drops buffered spans/events (metrics are kept) — for long-running
  /// collectors that export incrementally.
  void Clear() {
    spans_.clear();
    events_.clear();
  }

 private:
  Clock clock_;
  std::vector<SpanRecord> spans_;
  std::vector<Event> events_;
  MetricRegistry registry_;
};

}  // namespace slacker::obs

#endif  // SLACKER_OBS_TRACE_H_
