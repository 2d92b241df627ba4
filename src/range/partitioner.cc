#include "src/range/partitioner.h"

namespace slacker::range {

std::vector<uint64_t> PartitionSplitKeys(const storage::BTree& table,
                                         size_t target_ranges) {
  if (target_ranges <= 1) return {};
  std::vector<uint64_t> splits = table.SubtreeSplitKeys(target_ranges - 1);
  // A subtree separator of 0 would produce an empty leading range;
  // SubtreeSplitKeys never emits one for a non-empty tree (separators
  // exceed the smallest left-subtree key), but an all-zero-key
  // degenerate table must not crash the router.
  while (!splits.empty() && splits.front() == 0) {
    splits.erase(splits.begin());
  }
  return splits;
}

}  // namespace slacker::range
