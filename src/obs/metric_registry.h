#ifndef SLACKER_OBS_METRIC_REGISTRY_H_
#define SLACKER_OBS_METRIC_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/metric_types.h"
#include "src/common/units.h"

namespace slacker::obs {

// The instrument primitives (Counter, Gauge, Histogram) are defined in
// src/common/metric_types.h so modules below obs can expose AttachObs
// hooks; obs re-exports them under their historical names.
using common::Counter;
using common::Gauge;
using common::Histogram;

/// One metric's sampled (time, value) history, appended by
/// MetricRegistry::SampleSeries.
struct MetricSeries {
  std::vector<std::pair<SimTime, double>> points;
};

/// Labeled counters/gauges/histograms with stable handles. Handles stay
/// valid for the registry's lifetime (deque storage); lookups by name
/// happen only at attach time, never on the hot path.
class MetricRegistry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  /// A full name is "name" or "name{labels}". Asking for a name that
  /// is registered as another kind is fatal.
  Counter* FindOrCreateCounter(const std::string& name,
                               const std::string& labels = "");
  Gauge* FindOrCreateGauge(const std::string& name,
                           const std::string& labels = "");
  Histogram* FindOrCreateHistogram(const std::string& name,
                                   const std::string& labels = "");

  /// Appends (now, current value) to every counter's and gauge's series
  /// — the one sampler, slacker::PublishMetrics, calls this once per
  /// tick so CSV export sees a regular time series.
  void SampleSeries(SimTime now);

  /// Flattened view for exporters, in registration order.
  struct Entry {
    Kind kind;
    std::string full_name;
    const Counter* counter = nullptr;    // kCounter
    const Gauge* gauge = nullptr;        // kGauge
    const Histogram* histogram = nullptr;  // kHistogram
    const MetricSeries* series = nullptr;  // counters and gauges only
  };
  std::vector<Entry> Entries() const;

  size_t size() const { return order_.size(); }

 private:
  struct Slot {
    Kind kind;
    std::string full_name;
    size_t index;  // Into the kind's deque.
  };

  static std::string FullName(const std::string& name,
                              const std::string& labels);
  /// The slot named `full`, or nullptr; checks that it is a `kind`.
  const Slot* Find(Kind kind, const std::string& full) const;

  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::deque<MetricSeries> counter_series_;
  std::deque<MetricSeries> gauge_series_;
  std::vector<Slot> order_;
  std::unordered_map<std::string, size_t> by_name_;  // full name -> order_.
};

}  // namespace slacker::obs

#endif  // SLACKER_OBS_METRIC_REGISTRY_H_
