#ifndef SLACKER_COMMON_RANDOM_H_
#define SLACKER_COMMON_RANDOM_H_

#include <cstdint>

namespace slacker {

/// Deterministic, fast PRNG (xoshiro256**). Every stochastic component
/// in the simulator draws from an explicitly seeded Rng so that whole
/// experiments replay bit-identically from a seed.
class Rng {
 public:
  /// Seeds the generator; the seed is expanded with SplitMix64 so that
  /// small consecutive seeds yield well-separated streams.
  explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Exponential with the given mean (inter-arrival draw for a Poisson
  /// process). Requires mean > 0.
  double Exponential(double mean);

 private:
  uint64_t s_[4];
};

/// Zipfian generator over [0, n) using the Gray et al. rejection-free
/// method popularized by YCSB; theta in (0, 1), typically 0.99.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta);

  /// Draws a rank in [0, n); rank 0 is the most popular item.
  uint64_t Next(Rng* rng);

 private:
  double Zeta(uint64_t n, double theta) const;

  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

/// Scatters a Zipfian rank across the key space so popular keys are not
/// clustered (YCSB's "scrambled zipfian").
uint64_t FnvScramble(uint64_t value);

}  // namespace slacker

#endif  // SLACKER_COMMON_RANDOM_H_
