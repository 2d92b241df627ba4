#include "perfbench/host_probe.h"

#include <chrono>

namespace perfbench {
namespace {

constexpr uint64_t kTableWords = uint64_t{1} << 20;  // 8 MiB

}  // namespace

MemoryProbe::MemoryProbe() : table_(kTableWords, 1) {}

void MemoryProbe::RunBlock() {
  const auto begin = std::chrono::steady_clock::now();
  uint64_t x = state_;
  uint64_t sum = sink_;
  for (int i = 0; i < kAccessesPerBlock; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& word = table_[x & (kTableWords - 1)];
    sum += word;
    word ^= x;
  }
  state_ = x;
  sink_ = sum;
  seconds_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            begin)
                  .count();
  ++blocks_;
}

double MemoryProbe::ns_per_access() const {
  if (blocks_ == 0) return kQuietNsPerAccess;
  return seconds_ * 1e9 / (static_cast<double>(blocks_) * kAccessesPerBlock);
}

double MemoryProbe::slowdown() const {
  return ns_per_access() / kQuietNsPerAccess;
}

}  // namespace perfbench
