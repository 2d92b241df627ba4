#ifndef SLACKER_CODEC_CODEC_H_
#define SLACKER_CODEC_CODEC_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/common/units.h"

namespace slacker::codec {

/// Per-chunk encoding actually applied on the wire. The value is the
/// byte stored in the frame header, so the order is ABI: append only.
/// Any other byte is corruption.
enum class Codec : uint8_t {
  kRaw = 0,  // Rows ship verbatim.
  kLz = 1,   // Deterministic LZ block compression of the payload.
};

/// Operator-facing codec policy for a migration (--codec=...). kRaw /
/// kLz force that encoding; kAdaptive lets the selector pick per chunk
/// from modeled CPU cost versus the current throttle rate.
enum class CodecMode {
  kRaw = 0,
  kLz,
  kAdaptive,
};

const char* CodecName(Codec codec);
const char* CodecModeName(CodecMode mode);

/// Parses "raw" | "lz" | "adaptive" (the --codec flag values).
Status ParseCodecMode(const std::string& text, CodecMode* out);

// Modeled codec costs: bytes of input one core processes per second
// of sim time, not host wall-clock, so everything stays deterministic.
// Both endpoints price their work from these same constants.

/// LZ compression (source side).
inline constexpr double kCompressBytesPerSec =
    150.0 * static_cast<double>(kMiB);
/// Decompression/verify (target side).
inline constexpr double kDecompressBytesPerSec =
    600.0 * static_cast<double>(kMiB);

/// The adaptive selector engages LZ only when spare CPU can compress
/// at least this many times faster than the throttle drains wire bytes
/// — compression must never become the new bottleneck.
inline constexpr double kEngageHeadroom = 1.25;

/// EWMA smoothing for the observed compression ratio fed back into the
/// selector.
inline constexpr double kRatioEwmaAlpha = 0.2;

/// Codec policy for one migration.
struct CodecConfig {
  CodecMode mode = CodecMode::kRaw;

  /// Fraction of each record payload that is redundant (constant
  /// filler) in the compressible workload model; the rest is
  /// incompressible seeded noise. Achievable LZ ratio ~= 1/(1 - r).
  double payload_redundancy = 0.5;

  Status Validate() const;
};

}  // namespace slacker::codec

#endif  // SLACKER_CODEC_CODEC_H_
