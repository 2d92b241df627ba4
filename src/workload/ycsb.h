#ifndef SLACKER_WORKLOAD_YCSB_H_
#define SLACKER_WORKLOAD_YCSB_H_

#include <cstdint>
#include <memory>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/engine/transaction.h"
#include "src/workload/key_chooser.h"

namespace slacker::workload {

/// Fractions of each basic operation within a transaction. Must sum to
/// 1. The paper's primary benchmark is 85% reads / 15% updates.
struct OperationMix {
  double read = 0.85;
  double update = 0.15;
  double insert = 0.0;
  double del = 0.0;
  /// Range scans (YCSB workload E).
  double scan = 0.0;

  Status Validate() const;
};

/// A kScan's length is uniform in [1, kMaxScanLength].
inline constexpr uint64_t kMaxScanLength = 100;

/// Configuration of the transactional-YCSB benchmark from §5.1.2.
struct YcsbConfig {
  OperationMix mix;
  KeyDistribution distribution = KeyDistribution::kUniform;
  /// Basic operations per transaction ("10-operation transactions").
  int ops_per_txn = 10;
  /// Number of rows pre-loaded in the tenant.
  uint64_t record_count = kGiB / kKiB;

  /// Open-loop arrivals: Poisson with this mean inter-arrival (sec).
  /// The paper replaces YCSB's closed generator with this open one
  /// [Schroeder et al.].
  double mean_interarrival = 0.1;

  Status Validate() const;
};

/// Generates transaction specs for one tenant workload.
class YcsbWorkload {
 public:
  /// `seed` fully determines the generated stream.
  YcsbWorkload(const YcsbConfig& config, uint64_t tenant_id, uint64_t seed);

  /// Overwrites `spec` with the next transaction. Its ops vector is
  /// refilled in place, so a recycled spec keeps its capacity.
  void NextTxn(engine::TxnSpec* spec);

  /// Next Poisson inter-arrival draw (open loop).
  double NextInterarrival();

  /// Scales the arrival rate by `factor` (>1 = more load) — drives the
  /// dynamic-workload experiment (Fig. 13a's +40% step).
  void ScaleArrivalRate(double factor);
  double mean_interarrival() const { return mean_interarrival_; }

  const YcsbConfig& config() const { return config_; }
  uint64_t txns_generated() const { return next_txn_id_ - 1; }

 private:
  engine::OpType DrawOpType();

  YcsbConfig config_;
  uint64_t tenant_id_;
  Rng rng_;
  std::unique_ptr<KeyChooser> chooser_;
  double mean_interarrival_;
  uint64_t next_txn_id_ = 1;
  uint64_t live_keys_;
};

}  // namespace slacker::workload

#endif  // SLACKER_WORKLOAD_YCSB_H_
