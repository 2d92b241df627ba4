#ifndef SLACKER_RANGE_PARTITIONER_H_
#define SLACKER_RANGE_PARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/range/key_range.h"
#include "src/storage/btree.h"

namespace slacker::range {

/// The ascending split keys that cut `table`'s key space into up to
/// `target_ranges` contiguous migration units aligned to B+-tree
/// subtree boundaries (DESIGN.md §16), for a RangeDirectory::Split
/// sequence: the keys are the tree's own internal separators, so each
/// unit maps to whole subtrees and the hot-backup cursor scans it
/// without straddling reads. The last unit stays unbounded, so the
/// units still cover the whole key space. Fewer keys come back when the
/// tree is too small to cut `target_ranges` ways; none when it cannot
/// be cut at all.
std::vector<uint64_t> PartitionSplitKeys(const storage::BTree& table,
                                         size_t target_ranges);

}  // namespace slacker::range

#endif  // SLACKER_RANGE_PARTITIONER_H_
