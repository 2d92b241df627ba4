#include "src/workload/key_chooser.h"

namespace slacker::workload {
namespace {

class UniformChooser : public KeyChooser {
 public:
  explicit UniformChooser(uint64_t key_count) : key_count_(key_count) {}

  uint64_t Next(Rng* rng) override { return rng->NextBelow(key_count_); }
  KeyDistribution distribution() const override {
    return KeyDistribution::kUniform;
  }

 private:
  uint64_t key_count_;
};

class ZipfianChooser : public KeyChooser {
 public:
  ZipfianChooser(uint64_t key_count, double theta)
      : key_count_(key_count), zipf_(key_count, theta) {}

  uint64_t Next(Rng* rng) override {
    // Scramble so hot keys are spread over pages (YCSB scrambled
    // zipfian), then fold into the key range.
    const uint64_t rank = zipf_.Next(rng);
    return FnvScramble(rank) % key_count_;
  }

  KeyDistribution distribution() const override {
    return KeyDistribution::kZipfian;
  }

 private:
  uint64_t key_count_;
  ZipfianGenerator zipf_;
};

class LatestChooser : public KeyChooser {
 public:
  LatestChooser(uint64_t key_count, double theta)
      : key_count_(key_count), zipf_(key_count, theta) {}

  uint64_t Next(Rng* rng) override {
    // Rank 0 = newest key.
    const uint64_t rank = zipf_.Next(rng);
    return key_count_ - 1 - rank;
  }

  KeyDistribution distribution() const override {
    return KeyDistribution::kLatest;
  }

 private:
  uint64_t key_count_;
  ZipfianGenerator zipf_;
};

}  // namespace

std::unique_ptr<KeyChooser> KeyChooser::Create(KeyDistribution dist,
                                               uint64_t key_count,
                                               double zipf_theta) {
  switch (dist) {
    case KeyDistribution::kUniform:
      return std::make_unique<UniformChooser>(key_count);
    case KeyDistribution::kZipfian:
      return std::make_unique<ZipfianChooser>(key_count, zipf_theta);
    case KeyDistribution::kLatest:
      return std::make_unique<LatestChooser>(key_count, zipf_theta);
  }
  return nullptr;
}

}  // namespace slacker::workload
