#ifndef SLACKER_CODEC_SELECTOR_H_
#define SLACKER_CODEC_SELECTOR_H_

#include <cstdint>

#include "src/codec/codec.h"

namespace slacker::codec {

/// Everything the selector looks at for one chunk. Cheap value type so
/// the migration job can assemble it from throttle + CPU model state
/// without the selector holding pointers into either.
struct SelectorInputs {
  /// Current throttle token rate — the pace at which *wire* bytes
  /// drain toward the target.
  double throttle_bytes_per_sec = 0.0;
  /// Source server CPU: total cores and cores currently busy. total 0
  /// means "no CPU model attached" and is treated as one free core.
  int total_cores = 0;
  double busy_cores = 0.0;
};

/// Adaptive per-chunk codec choice: LZ engages only when spare CPU can
/// compress faster than the throttle drains wire bytes (with headroom),
/// and raw is the safe default. Feedback: ObserveRatio() folds achieved
/// compression ratios into an EWMA so the engage decision tracks the
/// workload's real compressibility, not just the configured model.
class CodecSelector {
 public:
  explicit CodecSelector(const CodecConfig& config);

  Codec Choose(const SelectorInputs& inputs) const;

  /// Reports an achieved logical/wire ratio for an LZ-encoded chunk.
  void ObserveRatio(double ratio);

  double expected_ratio() const { return expected_ratio_; }

 private:
  CodecConfig config_;
  double expected_ratio_;
};

}  // namespace slacker::codec

#endif  // SLACKER_CODEC_SELECTOR_H_
