#include "src/storage/btree.h"

#include <algorithm>
#include <new>
#include <sstream>
#include <utility>

#include "src/common/invariant.h"

namespace slacker::storage {

struct BTree::Node {
  explicit Node(bool leaf) : is_leaf(leaf) {}
  bool is_leaf;
};

// Both node kinds hold one slot more than kFanout: an insert lands
// first and the overfull node splits right after. A leaf's records
// follow its header in the same block, which is allocated at one of two
// capacities (kSmallLeaf or kFullLeaf, below); the capacity never
// changes the tree's shape, only the bytes a leaf takes.
struct BTree::LeafNode : BTree::Node {
  explicit LeafNode(uint32_t block_capacity)
      : Node(true), capacity(block_capacity) {}
  uint32_t capacity;
  size_t count = 0;
  LeafNode* next = nullptr;
  LeafNode* prev = nullptr;

  // records()[0, capacity) is the block's tail, left uninitialized; only
  // records()[0, count) are ever read. Sorted by key.
  Record* records() {
    return static_cast<Record*>(static_cast<void*>(this + 1));
  }
  const Record* records() const {
    return static_cast<const Record*>(static_cast<const void*>(this + 1));
  }
};

struct BTree::InternalNode : BTree::Node {
  InternalNode() : Node(false) {}
  // num_keys + 1 children. Subtree children[i] holds keys strictly below
  // keys[i]; children[i+1] holds keys >= keys[i].
  size_t num_keys = 0;
  uint64_t keys[kFanout];
  Node* children[kFanout + 1];

  size_t num_children() const { return num_keys + 1; }
};

/// Root-to-leaf descent: the internal nodes passed through and the child
/// index taken at each, so splits and merges walk back up without parent
/// pointers or a search for the child's slot.
struct BTree::Path {
  struct Frame {
    InternalNode* node;
    size_t child;
  };
  // Non-root internals hold >= kFanout / 2 children, so 2^64 keys fit in
  // 14 levels.
  static constexpr size_t kMaxDepth = 16;
  Frame frames[kMaxDepth];
  size_t depth = 0;

  void Push(InternalNode* node, size_t child) {
    SLACKER_DCHECK(depth < kMaxDepth);
    frames[depth++] = Frame{node, child};
  }
  bool empty() const { return depth == 0; }
  Frame Pop() { return frames[--depth]; }
};

namespace {

constexpr size_t kMinFill = BTree::kFanout / 2;

// A split keeps the upper half of an overfull leaf in the leaf's block
// and copies the lower half, kMinFill records, into a small one: an
// ascending load never writes into a leaf again once it is split, so
// every leaf behind the right edge stays in a half-size block. A leaf
// that needs more room than its small block holds moves into a full one
// (BTree::Grow).
constexpr uint32_t kSmallLeaf = kMinFill + 1;
constexpr uint32_t kFullLeaf = BTree::kFanout + 1;

// Both searches first test for a key past the node's last one: loads
// and inserts arrive in ascending key order and append at the right
// edge. Otherwise they request every cache line of the node's live keys
// at once, so a cold node costs one round of misses rather than one per
// halving step, then halve the candidate window with a conditional move
// rather than a branch: for a random key the comparisons are coin flips,
// so a branchy binary search mispredicts about every other step.

/// Prefetches the `bytes` bytes at `first`, one request per cache line.
void PrefetchLines(const void* first, size_t bytes) {
  const char* line = static_cast<const char*>(first);
  for (const char* end = line + bytes; line < end; line += 64) {
    __builtin_prefetch(line);
  }
}

/// Index of the child subtree that may contain `key`: the first
/// separator strictly greater than key (keys equal to a separator belong
/// to the right subtree). `num_keys` is at least 1.
size_t DescendIndex(const uint64_t* keys, size_t num_keys, uint64_t key) {
  if (keys[num_keys - 1] <= key) return num_keys;
  // Up to 8 lines of separators.
  PrefetchLines(keys, num_keys * sizeof(uint64_t));
  size_t base = 0;
  for (size_t n = num_keys; n > 1; n -= n / 2) {
    base = keys[base + n / 2] <= key ? base + n / 2 : base;
  }
  return base + (keys[base] <= key);
}

/// Position of the first record with key >= `key`.
size_t LowerBound(const Record* records, size_t count, uint64_t key) {
  if (count == 0 || records[count - 1].key < key) return count;
  // A leaf spans up to 25 cache lines and is often cold.
  PrefetchLines(records, count * sizeof(Record));
  size_t base = 0;
  for (size_t n = count; n > 1; n -= n / 2) {
    base = records[base + n / 2].key < key ? base + n / 2 : base;
  }
  return base + (records[base].key < key);
}

/// Opens a gap at `pos` in the first `count` elements of `array`.
template <typename T>
void InsertAt(T* array, size_t count, size_t pos, const T& value) {
  std::copy_backward(array + pos, array + count, array + count + 1);
  array[pos] = value;
}

/// Closes the gap at `pos` in the first `count` elements of `array`.
template <typename T>
void EraseAt(T* array, size_t count, size_t pos) {
  std::copy(array + pos + 1, array + count, array + pos);
}

}  // namespace

BTree::LeafNode* BTree::NewLeaf(uint32_t capacity) {
  static_assert(sizeof(LeafNode) % alignof(Record) == 0,
                "leaf records must start aligned after the header");
  void* block = ::operator new(sizeof(LeafNode) + capacity * sizeof(Record));
  return new (block) LeafNode(capacity);
}

void BTree::FreeLeaf(LeafNode* leaf) { ::operator delete(leaf); }

BTree::BTree() : root_(NewLeaf(kSmallLeaf)), size_(0) {}

BTree::~BTree() { FreeTree(root_); }

BTree::BTree(BTree&& other) noexcept
    : root_(other.root_), size_(other.size_) {
  other.root_ = NewLeaf(kSmallLeaf);
  other.size_ = 0;
}

BTree& BTree::operator=(BTree&& other) noexcept {
  if (this == &other) return *this;
  FreeTree(root_);
  root_ = other.root_;
  size_ = other.size_;
  other.root_ = NewLeaf(kSmallLeaf);
  other.size_ = 0;
  return *this;
}

void BTree::FreeTree(Node* node) {
  if (node->is_leaf) {
    FreeLeaf(static_cast<LeafNode*>(node));
    return;
  }
  auto* internal = static_cast<InternalNode*>(node);
  for (size_t i = 0; i < internal->num_children(); ++i) {
    FreeTree(internal->children[i]);
  }
  delete internal;
}

void BTree::Clear() {
  FreeTree(root_);
  root_ = NewLeaf(kSmallLeaf);
  size_ = 0;
}

BTree::LeafNode* BTree::Descend(uint64_t key, Path* path) const {
  Node* node = root_;
  while (!node->is_leaf) {
    auto* internal = static_cast<InternalNode*>(node);
    const size_t child = DescendIndex(internal->keys, internal->num_keys, key);
    if (path != nullptr) path->Push(internal, child);
    node = internal->children[child];
  }
  return static_cast<LeafNode*>(node);
}

BTree::Node** BTree::Slot(const Path& path) {
  if (path.empty()) return &root_;
  const Path::Frame& parent = path.frames[path.depth - 1];
  return &parent.node->children[parent.child];
}

BTree::LeafNode* BTree::Grow(LeafNode* leaf, Node** slot) {
  LeafNode* full = NewLeaf(kFullLeaf);
  std::copy(leaf->records(), leaf->records() + leaf->count, full->records());
  full->count = leaf->count;
  full->next = leaf->next;
  full->prev = leaf->prev;
  if (full->next != nullptr) full->next->prev = full;
  if (full->prev != nullptr) full->prev->next = full;
  *slot = full;
  FreeLeaf(leaf);
  return full;
}

const Record* BTree::Get(uint64_t key) const {
  const LeafNode* leaf = Descend(key, nullptr);
  const size_t pos = LowerBound(leaf->records(), leaf->count, key);
  if (pos == leaf->count || leaf->records()[pos].key != key) return nullptr;
  return &leaf->records()[pos];
}

bool BTree::Put(const Record& record) {
  Path path;
  LeafNode* leaf = Descend(record.key, &path);
  const size_t pos = LowerBound(leaf->records(), leaf->count, record.key);
  if (pos < leaf->count && leaf->records()[pos].key == record.key) {
    leaf->records()[pos] = record;
    return false;
  }
  if (leaf->count == leaf->capacity) leaf = Grow(leaf, Slot(path));
  InsertAt(leaf->records(), leaf->count, pos, record);
  ++leaf->count;
  ++size_;

  if (leaf->count > kFanout) SplitLeaf(leaf, &path);
  return true;
}

void BTree::AppendSorted(const Record* records, size_t count) {
  for (size_t i = 1; i < count; ++i) {
    SLACKER_CHECK(records[i - 1].key < records[i].key,
                  "AppendSorted keys not strictly ascending");
  }
  while (count > 0) {
    Path path;
    LeafNode* leaf = Descend(records[0].key, &path);
    // Only the rightmost leaf, whose last key is the tree's maximum,
    // may take the run.
    SLACKER_CHECK(leaf->next == nullptr &&
                      (leaf->count == 0 ||
                       leaf->records()[leaf->count - 1].key < records[0].key),
                  "AppendSorted key not above the tree's maximum");
    // Fill up to the overfull count at which Put splits.
    const size_t take = std::min(count, kFanout + 1 - leaf->count);
    if (leaf->count + take > leaf->capacity) leaf = Grow(leaf, Slot(path));
    std::copy(records, records + take, leaf->records() + leaf->count);
    leaf->count += take;
    size_ += take;
    records += take;
    count -= take;
    if (leaf->count > kFanout) SplitLeaf(leaf, &path);
  }
}

void BTree::PutNewest(const Record* records, size_t count) {
  const Result<uint64_t> max_key = MaxKey();
  // Every key at or below `max` may already be present; a key above it
  // cannot be, so a strictly ascending run above it is an append.
  bool has_max = max_key.ok();
  uint64_t max = has_max ? *max_key : 0;
  size_t i = 0;
  while (i < count) {
    size_t run = i;
    while (run < count && (!has_max || records[run].key > max)) {
      max = records[run++].key;
      has_max = true;
    }
    if (run > i) {
      AppendSorted(records + i, run - i);
      i = run;
      continue;
    }
    const Record* existing = Get(records[i].key);
    if (existing == nullptr || existing->lsn < records[i].lsn) {
      Put(records[i]);
    }
    ++i;
  }
}

void BTree::SplitLeaf(LeafNode* leaf, Path* path) {
  LeafNode* left = NewLeaf(kSmallLeaf);
  const size_t mid = leaf->count / 2;
  Record* records = leaf->records();
  std::copy(records, records + mid, left->records());
  left->count = mid;
  std::copy(records + mid, records + leaf->count, records);
  leaf->count -= mid;
  left->prev = leaf->prev;
  left->next = leaf;
  if (left->prev != nullptr) left->prev->next = left;
  leaf->prev = left;
  // The lower half takes the split leaf's slot; the upper half goes in
  // right of it.
  *Slot(*path) = left;
  InsertIntoParent(path, left, records[0].key, leaf);
}

void BTree::InsertIntoParent(Path* path, Node* left, uint64_t sep,
                             Node* right) {
  while (!path->empty()) {
    // `left` is the child the descent took, so its slot is on the path.
    const auto [parent, pos] = path->Pop();
    InsertAt(parent->keys, parent->num_keys, pos, sep);
    InsertAt(parent->children, parent->num_children(), pos + 1, right);
    ++parent->num_keys;

    if (parent->num_children() <= kFanout) return;

    // Split the internal node; the middle separator is pushed up, not
    // copied (B+-tree internal split).
    auto* new_right = new InternalNode();
    const size_t mid = parent->num_keys / 2;
    new_right->num_keys = parent->num_keys - mid - 1;
    std::copy(parent->keys + mid + 1, parent->keys + parent->num_keys,
              new_right->keys);
    std::copy(parent->children + mid + 1,
              parent->children + parent->num_children(), new_right->children);
    sep = parent->keys[mid];
    parent->num_keys = mid;
    left = parent;
    right = new_right;
  }

  auto* new_root = new InternalNode();
  new_root->num_keys = 1;
  new_root->keys[0] = sep;
  new_root->children[0] = left;
  new_root->children[1] = right;
  root_ = new_root;
}

bool BTree::Erase(uint64_t key) {
  Path path;
  LeafNode* leaf = Descend(key, &path);
  const size_t pos = LowerBound(leaf->records(), leaf->count, key);
  if (pos == leaf->count || leaf->records()[pos].key != key) return false;
  EraseAt(leaf->records(), leaf->count, pos);
  --leaf->count;
  --size_;
  RebalanceAfterErase(&path, leaf);
  return true;
}

void BTree::RebalanceAfterErase(Path* path, Node* node) {
  while (!path->empty()) {
    const size_t fill = node->is_leaf
                            ? static_cast<LeafNode*>(node)->count
                            : static_cast<InternalNode*>(node)->num_children();
    if (fill >= kMinFill) return;

    const auto [parent, idx] = path->Pop();
    Node* left_sib = idx > 0 ? parent->children[idx - 1] : nullptr;
    Node* right_sib =
        idx < parent->num_keys ? parent->children[idx + 1] : nullptr;
    // Merge with a sibling (prefer left so the survivor keeps its slot).
    const size_t sep_idx = left_sib != nullptr ? idx - 1 : idx;

    if (node->is_leaf) {
      auto* leaf = static_cast<LeafNode*>(node);
      auto* left = static_cast<LeafNode*>(left_sib);
      auto* right = static_cast<LeafNode*>(right_sib);
      if (left != nullptr && left->count > kMinFill) {
        // Borrow the largest record from the left sibling. An underfull
        // leaf holds fewer than kMinFill records, so even a small block
        // has room for one more.
        InsertAt(leaf->records(), leaf->count, 0,
                 left->records()[left->count - 1]);
        ++leaf->count;
        --left->count;
        parent->keys[idx - 1] = leaf->records()[0].key;
        return;
      }
      if (right != nullptr && right->count > kMinFill) {
        leaf->records()[leaf->count++] = right->records()[0];
        EraseAt(right->records(), right->count, 0);
        --right->count;
        parent->keys[idx] = right->records()[0].key;
        return;
      }
      LeafNode* into = left != nullptr ? left : leaf;
      LeafNode* from = left != nullptr ? leaf : right;
      if (into->count + from->count > into->capacity) {
        into = Grow(into, &parent->children[sep_idx]);
      }
      std::copy(from->records(), from->records() + from->count,
                into->records() + into->count);
      into->count += from->count;
      into->next = from->next;
      if (into->next != nullptr) into->next->prev = into;
      FreeLeaf(from);
    } else {
      auto* internal = static_cast<InternalNode*>(node);
      auto* left = static_cast<InternalNode*>(left_sib);
      auto* right = static_cast<InternalNode*>(right_sib);
      if (left != nullptr && left->num_children() > kMinFill) {
        // Rotate through the parent separator.
        InsertAt(internal->children, internal->num_children(), 0,
                 left->children[left->num_keys]);
        InsertAt(internal->keys, internal->num_keys, 0, parent->keys[idx - 1]);
        ++internal->num_keys;
        parent->keys[idx - 1] = left->keys[left->num_keys - 1];
        --left->num_keys;
        return;
      }
      if (right != nullptr && right->num_children() > kMinFill) {
        internal->children[internal->num_children()] = right->children[0];
        internal->keys[internal->num_keys++] = parent->keys[idx];
        parent->keys[idx] = right->keys[0];
        EraseAt(right->keys, right->num_keys, 0);
        EraseAt(right->children, right->num_children(), 0);
        --right->num_keys;
        return;
      }
      // Merge internals: the parent separator descends between them.
      InternalNode* into = left != nullptr ? left : internal;
      InternalNode* from = left != nullptr ? internal : right;
      into->keys[into->num_keys] = parent->keys[sep_idx];
      std::copy(from->keys, from->keys + from->num_keys,
                into->keys + into->num_keys + 1);
      std::copy(from->children, from->children + from->num_children(),
                into->children + into->num_children());
      into->num_keys += from->num_keys + 1;
      delete from;
    }
    EraseAt(parent->keys, parent->num_keys, sep_idx);
    EraseAt(parent->children, parent->num_children(), sep_idx + 1);
    --parent->num_keys;
    node = parent;
  }

  // The root never underflows; an internal root left with one child
  // collapses into it.
  if (!node->is_leaf) {
    auto* internal = static_cast<InternalNode*>(node);
    if (internal->num_keys == 0) {
      root_ = internal->children[0];
      delete internal;
    }
  }
}

const Record& BTree::Iterator::record() const {
  const auto* leaf = static_cast<const LeafNode*>(leaf_);
  return leaf->records()[index_];
}

void BTree::Iterator::Next() {
  const auto* leaf = static_cast<const LeafNode*>(leaf_);
  ++index_;
  while (leaf != nullptr && index_ >= leaf->count) {
    leaf = leaf->next;
    index_ = 0;
  }
  leaf_ = leaf;
}

BTree::Iterator BTree::Seek(uint64_t key) const {
  const LeafNode* leaf = Descend(key, nullptr);
  Iterator iter;
  iter.leaf_ = leaf;
  iter.index_ = LowerBound(leaf->records(), leaf->count, key);
  if (iter.index_ >= leaf->count) {
    // Either an empty root leaf or key beyond this leaf; walk forward.
    const LeafNode* next = leaf->next;
    while (next != nullptr && next->count == 0) next = next->next;
    iter.leaf_ = next;
    iter.index_ = 0;
  }
  return iter;
}

BTree::Iterator BTree::Begin() const { return Seek(0); }

Result<uint64_t> BTree::MaxKey() const {
  const Node* node = root_;
  while (!node->is_leaf) {
    const auto* internal = static_cast<const InternalNode*>(node);
    node = internal->children[internal->num_keys];
  }
  const auto* leaf = static_cast<const LeafNode*>(node);
  if (leaf->count == 0) return Status::NotFound("tree is empty");
  return leaf->records()[leaf->count - 1].key;
}

std::vector<uint64_t> BTree::SubtreeSplitKeys(size_t max_splits) const {
  std::vector<uint64_t> candidates;
  if (max_splits == 0) return candidates;
  if (root_->is_leaf) {
    // No internal separators exist; every record boundary is trivially
    // subtree-aligned (a record is a one-row subtree).
    const auto* leaf = static_cast<const LeafNode*>(root_);
    for (size_t i = 1; i < leaf->count; ++i) {
      candidates.push_back(leaf->records()[i].key);
    }
  } else {
    // Collect separators level by level: every key of an internal node
    // is a subtree boundary, and deeper levels only refine the ones
    // above. Stop as soon as a level's accumulated separators suffice,
    // so partitions stay as coarse (and as balanced) as the tree allows.
    std::vector<const InternalNode*> level = {
        static_cast<const InternalNode*>(root_)};
    while (!level.empty()) {
      for (const InternalNode* node : level) {
        candidates.insert(candidates.end(), node->keys,
                          node->keys + node->num_keys);
      }
      if (candidates.size() >= max_splits) break;
      std::vector<const InternalNode*> next;
      for (const InternalNode* node : level) {
        for (size_t i = 0; i < node->num_children(); ++i) {
          if (!node->children[i]->is_leaf) {
            next.push_back(static_cast<const InternalNode*>(node->children[i]));
          }
        }
      }
      level = std::move(next);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  }
  if (candidates.size() <= max_splits) return candidates;
  // Thin to an evenly spaced subset of exactly max_splits keys.
  std::vector<uint64_t> picked;
  picked.reserve(max_splits);
  for (size_t i = 1; i <= max_splits; ++i) {
    const size_t index = i * candidates.size() / (max_splits + 1);
    picked.push_back(candidates[std::min(index, candidates.size() - 1)]);
  }
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  return picked;
}

const BTree::LeafNode* BTree::LeftmostLeaf() const {
  const Node* node = root_;
  while (!node->is_leaf) {
    node = static_cast<const InternalNode*>(node)->children[0];
  }
  return static_cast<const LeafNode*>(node);
}

std::vector<size_t> BTree::LeafSizes() const {
  std::vector<size_t> sizes;
  for (const LeafNode* leaf = LeftmostLeaf(); leaf != nullptr;
       leaf = leaf->next) {
    sizes.push_back(leaf->count);
  }
  return sizes;
}

int BTree::LeafDepth() const {
  int depth = 0;
  const Node* node = root_;
  while (!node->is_leaf) {
    node = static_cast<const InternalNode*>(node)->children[0];
    ++depth;
  }
  return depth;
}

int BTree::Height() const { return LeafDepth() + 1; }

Status BTree::ValidateNode(const Node* node, uint64_t lo, uint64_t hi,
                           bool has_lo, bool has_hi, int depth,
                           int expected_leaf_depth) const {
  const bool is_root = node == root_;
  if (node->is_leaf) {
    if (depth != expected_leaf_depth) {
      return Status::Corruption("leaves at unequal depth");
    }
    const auto* leaf = static_cast<const LeafNode*>(node);
    if (!is_root && leaf->count < kMinFill) {
      return Status::Corruption("leaf underfull");
    }
    if (leaf->count > kFanout) {
      return Status::Corruption("leaf overfull");
    }
    if (leaf->count > leaf->capacity) {
      return Status::Corruption("leaf past its block's capacity");
    }
    for (size_t i = 0; i < leaf->count; ++i) {
      const uint64_t key = leaf->records()[i].key;
      if (i > 0 && key <= leaf->records()[i - 1].key) {
        return Status::Corruption("leaf unsorted");
      }
      if (has_lo && key < lo) return Status::Corruption("key below bound");
      if (has_hi && key >= hi) return Status::Corruption("key above bound");
    }
    return Status::Ok();
  }

  const auto* internal = static_cast<const InternalNode*>(node);
  if (internal->num_keys == 0) {
    return Status::Corruption("internal node without a separator");
  }
  if (!is_root && internal->num_children() < kMinFill) {
    return Status::Corruption("internal underfull");
  }
  if (internal->num_children() > kFanout) {
    return Status::Corruption("internal overfull");
  }
  for (size_t i = 1; i < internal->num_keys; ++i) {
    if (internal->keys[i] <= internal->keys[i - 1]) {
      return Status::Corruption("separators unsorted");
    }
  }
  for (size_t i = 0; i < internal->num_children(); ++i) {
    const bool child_has_lo = i > 0 || has_lo;
    const uint64_t child_lo = i > 0 ? internal->keys[i - 1] : lo;
    const bool child_has_hi = i < internal->num_keys || has_hi;
    const uint64_t child_hi = i < internal->num_keys ? internal->keys[i] : hi;
    SLACKER_RETURN_IF_ERROR(ValidateNode(internal->children[i], child_lo,
                                         child_hi, child_has_lo, child_has_hi,
                                         depth + 1, expected_leaf_depth));
  }
  return Status::Ok();
}

Status BTree::Validate() const {
  SLACKER_RETURN_IF_ERROR(
      ValidateNode(root_, 0, 0, false, false, 0, LeafDepth()));
  // Every leaf's neighbours must point back at it.
  if (LeftmostLeaf()->prev != nullptr) {
    return Status::Corruption("first leaf has a prev link");
  }
  for (const LeafNode* leaf = LeftmostLeaf(); leaf->next != nullptr;
       leaf = leaf->next) {
    if (leaf->next->prev != leaf) {
      return Status::Corruption("leaf chain prev link broken");
    }
  }
  // The leaf chain must enumerate exactly size() records in order.
  size_t seen = 0;
  uint64_t prev = 0;
  bool first = true;
  for (Iterator it = Begin(); it.Valid(); it.Next()) {
    if (!first && it.record().key <= prev) {
      return Status::Corruption("leaf chain unsorted");
    }
    prev = it.record().key;
    first = false;
    ++seen;
  }
  if (seen != size_) {
    std::ostringstream msg;
    msg << "leaf chain count " << seen << " != size " << size_;
    return Status::Corruption(msg.str());
  }
  return Status::Ok();
}

}  // namespace slacker::storage
