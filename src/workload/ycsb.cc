#include "src/workload/ycsb.h"

#include <cmath>

namespace slacker::workload {

Status OperationMix::Validate() const {
  if (read < 0 || update < 0 || scan < 0) {
    return Status::InvalidArgument("negative operation fraction");
  }
  const double sum = read + update + scan;
  if (std::abs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("operation mix must sum to 1");
  }
  return Status::Ok();
}

Status YcsbConfig::Validate() const {
  SLACKER_RETURN_IF_ERROR(mix.Validate());
  if (ops_per_txn <= 0) {
    return Status::InvalidArgument("ops_per_txn must be positive");
  }
  if (record_count == 0) {
    return Status::InvalidArgument("record_count must be positive");
  }
  if (mean_interarrival <= 0) {
    return Status::InvalidArgument("mean_interarrival must be positive");
  }
  return Status::Ok();
}

YcsbWorkload::YcsbWorkload(const YcsbConfig& config, uint64_t tenant_id,
                           uint64_t seed)
    : config_(config),
      tenant_id_(tenant_id),
      rng_(seed),
      chooser_(KeyChooser::Create(config.distribution, config.record_count)),
      mean_interarrival_(config.mean_interarrival) {}

engine::OpType YcsbWorkload::DrawOpType() {
  double draw = rng_.NextDouble();
  if (draw < config_.mix.read) return engine::OpType::kRead;
  draw -= config_.mix.read;
  if (draw < config_.mix.update) return engine::OpType::kUpdate;
  return engine::OpType::kScan;
}

void YcsbWorkload::NextTxn(engine::TxnSpec* spec) {
  spec->txn_id = next_txn_id_++;
  spec->tenant_id = tenant_id_;
  spec->ops.clear();
  spec->ops.reserve(config_.ops_per_txn);
  for (int i = 0; i < config_.ops_per_txn; ++i) {
    engine::Operation op;
    op.type = DrawOpType();
    op.key = chooser_->Next(&rng_);
    if (op.type == engine::OpType::kScan) {
      op.scan_length = 1 + rng_.NextBelow(kMaxScanLength);
    }
    spec->ops.push_back(op);
  }
}

double YcsbWorkload::NextInterarrival() {
  return rng_.Exponential(mean_interarrival_);
}

void YcsbWorkload::ScaleArrivalRate(double factor) {
  if (factor > 0) mean_interarrival_ /= factor;
}

}  // namespace slacker::workload
