#ifndef SLACKER_STORAGE_BTREE_H_
#define SLACKER_STORAGE_BTREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/storage/record.h"

namespace slacker::storage {

/// In-memory B+-tree keyed by uint64, storing Record values in the
/// leaves. This is the tenant's clustered index (the InnoDB analog).
/// Supports upsert, point lookup, delete with rebalancing, and ordered
/// scans via leaf chaining — the scan is what the hot-backup streamer
/// uses to produce a page-ordered snapshot.
///
/// Internal nodes are fixed-capacity inline arrays. A leaf's records
/// trail its header in one block of one of two capacities: a split
/// leaves the lower half in a half-size block, and a leaf moves into a
/// full-size one only when it needs the room, so the half-full leaves
/// of an ascending load take about half the bytes. No node has a parent
/// pointer: mutations record their root-to-leaf descent path and walk
/// it back up to split or rebalance (DESIGN.md §15.5).
class BTree {
 public:
  /// Maximum records per leaf / children per internal node.
  static constexpr size_t kFanout = 64;

  BTree();
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;
  BTree(BTree&&) noexcept;
  BTree& operator=(BTree&&) noexcept;

  /// Inserts or overwrites by record.key. Returns true if the key was
  /// newly inserted (false for overwrite).
  bool Put(const Record& record);

  /// Appends `count` records whose keys ascend strictly and all exceed
  /// the current maximum; anything else aborts. Builds the same tree as
  /// calling Put on each in order (same leaves, separators and split
  /// keys), but fills the rightmost leaf a run at a time and descends
  /// the right edge once per leaf split rather than once per record.
  void AppendSorted(const Record* records, size_t count);

  /// Applies `count` records in order, each only if its key is absent
  /// or holds an older LSN (newest wins; fuzzy snapshot chunks may carry
  /// a version older than one already applied). Builds the same tree as
  /// that Get/Put loop, but a run of records whose keys ascend strictly
  /// above the tree's maximum, the normal case for a key-ordered
  /// snapshot chunk, goes in through AppendSorted.
  void PutNewest(const Record* records, size_t count);

  /// Returns the record for `key`, or nullptr. The pointer is
  /// invalidated by any mutation.
  const Record* Get(uint64_t key) const;

  /// Removes `key`; returns false if absent.
  bool Erase(uint64_t key);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void Clear();

  /// Forward iterator over records in key order.
  class Iterator {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    const Record& record() const;
    void Next();

   private:
    friend class BTree;
    const void* leaf_ = nullptr;
    size_t index_ = 0;
  };

  /// Iterator at the first record with key >= `key`.
  Iterator Seek(uint64_t key) const;
  /// Iterator at the smallest key.
  Iterator Begin() const;

  /// Largest key present; NotFound when empty.
  Result<uint64_t> MaxKey() const;

  /// Up to `max_splits` strictly increasing separator keys, each
  /// aligned to a subtree boundary: splitting the key space at a
  /// returned key k puts every record of some whole subtree strictly
  /// below k and the rest at or above it. The tree's own internal
  /// separators are collected top-down (shallowest levels first) until
  /// enough exist, then thinned to an evenly spaced subset — so the
  /// resulting partitions track the tree's actual key distribution,
  /// not an assumed-uniform key space. A root-leaf tree falls back to
  /// record keys. Fewer (possibly zero) keys come back when the tree
  /// is too small to cut `max_splits` ways.
  std::vector<uint64_t> SubtreeSplitKeys(size_t max_splits) const;

  /// Record counts of the leaves in chain (key) order. Together with
  /// Height() and SubtreeSplitKeys() this fingerprints the tree's shape;
  /// used by tests.
  std::vector<size_t> LeafSizes() const;

  /// Checks structural invariants (key ordering, fill factors, block
  /// capacities, leaf chain consistency in both directions, separator
  /// correctness). Used by tests.
  Status Validate() const;

  /// Height of the tree (1 = just a root leaf).
  int Height() const;

 private:
  struct Node;
  struct LeafNode;
  struct InternalNode;
  struct Path;

  static LeafNode* NewLeaf(uint32_t capacity);
  static void FreeLeaf(LeafNode* leaf);

  LeafNode* Descend(uint64_t key, Path* path) const;
  /// The pointer to the node at the end of `path`'s descent: its
  /// parent's child slot, or root_.
  Node** Slot(const Path& path);
  /// Moves `leaf` into a full-size block, re-pointing `slot` (which
  /// holds `leaf`) and both chain neighbours; returns the new block.
  LeafNode* Grow(LeafNode* leaf, Node** slot);
  /// Splits an overfull `leaf` (the end of `path`'s descent): the lower
  /// half moves into a new small left sibling, which takes the leaf's
  /// slot, and the upper half moves to the front of `leaf`'s block.
  void SplitLeaf(LeafNode* leaf, Path* path);
  void InsertIntoParent(Path* path, Node* left, uint64_t sep, Node* right);
  void RebalanceAfterErase(Path* path, Node* node);
  Status ValidateNode(const Node* node, uint64_t lo, uint64_t hi,
                      bool has_lo, bool has_hi, int depth,
                      int expected_leaf_depth) const;
  int LeafDepth() const;
  const LeafNode* LeftmostLeaf() const;
  void FreeTree(Node* node);

  Node* root_;
  size_t size_;
};

}  // namespace slacker::storage

#endif  // SLACKER_STORAGE_BTREE_H_
