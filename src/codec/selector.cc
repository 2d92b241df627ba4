#include "src/codec/selector.h"

#include <algorithm>

namespace slacker::codec {

CodecSelector::CodecSelector(const CodecConfig& config) : config_(config) {
  // Prior from the workload model: redundancy r compresses ~1/(1 - r).
  expected_ratio_ = 1.0 / std::max(0.05, 1.0 - config_.payload_redundancy);
}

Codec CodecSelector::Choose(const SelectorInputs& inputs) const {
  switch (config_.mode) {
    case CodecMode::kRaw:
      return Codec::kRaw;
    case CodecMode::kLz:
      return Codec::kLz;
    case CodecMode::kAdaptive:
      break;
  }
  // Engage LZ only when the network, not CPU, is the bottleneck: spare
  // cores must be able to compress logical bytes at least
  // kEngageHeadroom times faster than the throttle drains the
  // resulting wire bytes (wire rate * expected ratio, in logical
  // bytes/sec). Otherwise compression would stall the stream.
  const double free_cores =
      inputs.total_cores == 0
          ? 1.0
          : std::max(0.0, static_cast<double>(inputs.total_cores) -
                              inputs.busy_cores);
  const double compress_rate = kCompressBytesPerSec * free_cores;
  const double drain_rate_logical =
      inputs.throttle_bytes_per_sec * expected_ratio_;
  if (compress_rate >= drain_rate_logical * kEngageHeadroom) {
    return Codec::kLz;
  }
  return Codec::kRaw;
}

void CodecSelector::ObserveRatio(double ratio) {
  if (ratio <= 0.0) return;
  expected_ratio_ =
      (1.0 - kRatioEwmaAlpha) * expected_ratio_ + kRatioEwmaAlpha * ratio;
}

}  // namespace slacker::codec
