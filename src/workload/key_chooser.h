#ifndef SLACKER_WORKLOAD_KEY_CHOOSER_H_
#define SLACKER_WORKLOAD_KEY_CHOOSER_H_

#include <cstdint>
#include <memory>

#include "src/common/random.h"

namespace slacker::workload {

/// Request distribution over the tenant's key space, following YCSB's
/// standard choosers.
enum class KeyDistribution {
  /// Every loaded row equally likely (the paper's setting: "applied to
  /// random table rows").
  kUniform,
  /// Scrambled Zipfian: a few hot rows, scattered across pages.
  kZipfian,
  /// Latest: skewed toward the newest rows. A tenant's keys are fixed at
  /// load, so the newest are the highest keys, the last loaded.
  kLatest,
};

/// Draws keys from [0, key_count), a tenant's fixed key space.
class KeyChooser {
 public:
  static std::unique_ptr<KeyChooser> Create(KeyDistribution dist,
                                            uint64_t key_count,
                                            double zipf_theta = 0.99);
  virtual ~KeyChooser() = default;

  virtual uint64_t Next(Rng* rng) = 0;
  virtual KeyDistribution distribution() const = 0;
};

}  // namespace slacker::workload

#endif  // SLACKER_WORKLOAD_KEY_CHOOSER_H_
