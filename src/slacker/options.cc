#include "src/slacker/options.h"

namespace slacker {

Status MigrationOptions::Validate() const {
  if (throttle == ThrottleKind::kFixed && fixed_rate_mbps <= 0.0) {
    return Status::InvalidArgument("fixed_rate_mbps must be positive");
  }
  if (throttle == ThrottleKind::kPid) {
    SLACKER_RETURN_IF_ERROR(pid.Validate());
  }
  if (throttle == ThrottleKind::kAdaptivePid) {
    SLACKER_RETURN_IF_ERROR(pid.Validate());
    SLACKER_RETURN_IF_ERROR(adaptive.Validate());
  }
  if (controller_tick <= 0.0) {
    return Status::InvalidArgument("controller_tick must be positive");
  }
  if (backup.chunk_bytes == 0) {
    return Status::InvalidArgument("chunk_bytes must be positive");
  }
  SLACKER_RETURN_IF_ERROR(codec.Validate());
  if (max_delta_rounds <= 0) {
    return Status::InvalidArgument("max_delta_rounds must be positive");
  }
  if (!range.IsFull()) {
    if (mode != MigrationMode::kLive) {
      return Status::InvalidArgument(
          "a partial range requires MigrationMode::kLive");
    }
    if (range.lo >= range.hi) {
      return Status::InvalidArgument("range must be non-empty");
    }
  }
  return Status::Ok();
}

const char* MigrationPhaseName(MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::kNegotiate:
      return "negotiate";
    case MigrationPhase::kSnapshot:
      return "snapshot";
    case MigrationPhase::kPrepare:
      return "prepare";
    case MigrationPhase::kDelta:
      return "delta";
    case MigrationPhase::kHandover:
      return "handover";
    case MigrationPhase::kDone:
      return "done";
    case MigrationPhase::kFailed:
      return "failed";
  }
  return "?";
}

}  // namespace slacker
