#include "src/slacker/stop_and_copy.h"

namespace slacker {

StopAndCopyEstimate EstimateStopAndCopy(uint64_t data_bytes,
                                        double rate_bytes_per_sec,
                                        const MigrationOptions& options) {
  StopAndCopyEstimate estimate;
  if (rate_bytes_per_sec > 0.0) {
    estimate.copy_seconds =
        static_cast<double>(data_bytes) / rate_bytes_per_sec;
  }
  if (!options.file_level_copy) {
    estimate.import_seconds =
        kImportSecondsPerMib * (static_cast<double>(data_bytes) / kMiB);
  }
  return estimate;
}

MigrationOptions StopAndCopyOptions(double fixed_rate_mbps,
                                    bool file_level_copy) {
  MigrationOptions options;
  options.mode = MigrationMode::kStopAndCopy;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = fixed_rate_mbps;
  options.file_level_copy = file_level_copy;
  return options;
}

}  // namespace slacker
