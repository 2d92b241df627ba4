#ifndef SLACKER_RANGE_KEY_RANGE_H_
#define SLACKER_RANGE_KEY_RANGE_H_

#include <cstdint>
#include <string>

namespace slacker::range {

/// Upper bound meaning "no bound": the range extends to the top of the
/// key space. Insert keys grow upward from the loaded record count, so
/// the topmost range of every tenant must stay unbounded or freshly
/// inserted rows would fall outside every range.
inline constexpr uint64_t kNoUpperBound = UINT64_MAX;

/// One migration unit: a contiguous, half-open slice [lo, hi) of a
/// tenant's key space (DESIGN.md §16). A tenant's ranges always
/// partition [0, kNoUpperBound) — contiguous, non-overlapping, covering
/// — which is what makes per-key ownership lookups total functions.
struct KeyRange {
  uint64_t lo = 0;
  uint64_t hi = kNoUpperBound;

  bool Contains(uint64_t key) const { return key >= lo && key < hi; }
  /// The whole key space (the granularity-1 compatibility range).
  bool IsFull() const { return lo == 0 && hi == kNoUpperBound; }
  bool operator==(const KeyRange& other) const = default;

  std::string ToString() const {
    // Appended piece by piece: GCC 12 at -O3 reports a false -Wrestrict
    // on the equivalent operator+ chain.
    std::string out = "[";
    out += std::to_string(lo);
    out += ", ";
    out += hi == kNoUpperBound ? std::string("inf") : std::to_string(hi);
    out += ")";
    return out;
  }
};

}  // namespace slacker::range

#endif  // SLACKER_RANGE_KEY_RANGE_H_
