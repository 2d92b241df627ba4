#include "src/obs/metric_registry.h"

#include "src/common/invariant.h"

namespace slacker::obs {

std::string MetricRegistry::FullName(const std::string& name,
                                     const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

const MetricRegistry::Slot* MetricRegistry::Find(Kind kind,
                                                const std::string& full) const {
  auto it = by_name_.find(full);
  if (it == by_name_.end()) return nullptr;
  const Slot& slot = order_[it->second];
  SLACKER_CHECK(slot.kind == kind,
                "metric " + full + " is already registered as another kind");
  return &slot;
}

Counter* MetricRegistry::FindOrCreateCounter(const std::string& name,
                                             const std::string& labels) {
  const std::string full = FullName(name, labels);
  if (const Slot* slot = Find(Kind::kCounter, full)) {
    return &counters_[slot->index];
  }
  counters_.emplace_back();
  counter_series_.emplace_back();
  by_name_[full] = order_.size();
  order_.push_back(Slot{Kind::kCounter, full, counters_.size() - 1});
  return &counters_.back();
}

Gauge* MetricRegistry::FindOrCreateGauge(const std::string& name,
                                         const std::string& labels) {
  const std::string full = FullName(name, labels);
  if (const Slot* slot = Find(Kind::kGauge, full)) {
    return &gauges_[slot->index];
  }
  gauges_.emplace_back();
  gauge_series_.emplace_back();
  by_name_[full] = order_.size();
  order_.push_back(Slot{Kind::kGauge, full, gauges_.size() - 1});
  return &gauges_.back();
}

Histogram* MetricRegistry::FindOrCreateHistogram(const std::string& name,
                                                 const std::string& labels) {
  const std::string full = FullName(name, labels);
  if (const Slot* slot = Find(Kind::kHistogram, full)) {
    return &histograms_[slot->index];
  }
  histograms_.emplace_back();
  by_name_[full] = order_.size();
  order_.push_back(Slot{Kind::kHistogram, full, histograms_.size() - 1});
  return &histograms_.back();
}

void MetricRegistry::SampleSeries(SimTime now) {
  for (const Slot& slot : order_) {
    switch (slot.kind) {
      case Kind::kCounter:
        counter_series_[slot.index].points.emplace_back(
            now, static_cast<double>(counters_[slot.index].value()));
        break;
      case Kind::kGauge:
        gauge_series_[slot.index].points.emplace_back(
            now, gauges_[slot.index].value());
        break;
      case Kind::kHistogram:
        break;  // Distributions are exported whole, not sampled.
    }
  }
}

std::vector<MetricRegistry::Entry> MetricRegistry::Entries() const {
  std::vector<Entry> out;
  out.reserve(order_.size());
  for (const Slot& slot : order_) {
    Entry entry;
    entry.kind = slot.kind;
    entry.full_name = slot.full_name;
    switch (slot.kind) {
      case Kind::kCounter:
        entry.counter = &counters_[slot.index];
        entry.series = &counter_series_[slot.index];
        break;
      case Kind::kGauge:
        entry.gauge = &gauges_[slot.index];
        entry.series = &gauge_series_[slot.index];
        break;
      case Kind::kHistogram:
        entry.histogram = &histograms_[slot.index];
        break;
    }
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace slacker::obs
