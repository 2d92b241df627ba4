// B+-tree tests: unit coverage plus randomized model checking against
// std::map, with structural invariants validated after every phase.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/storage/btree.h"

namespace slacker::storage {
namespace {

Record R(uint64_t key, Lsn lsn = 1, uint64_t digest = 0) {
  return Record{key, lsn, digest ? digest : key * 31};
}

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Get(1), nullptr);
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_FALSE(tree.MaxKey().ok());
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(BTreeTest, PutAndGet) {
  BTree tree;
  EXPECT_TRUE(tree.Put(R(5)));
  EXPECT_TRUE(tree.Put(R(3)));
  EXPECT_TRUE(tree.Put(R(9)));
  EXPECT_EQ(tree.size(), 3u);
  ASSERT_NE(tree.Get(5), nullptr);
  EXPECT_EQ(tree.Get(5)->key, 5u);
  EXPECT_EQ(tree.Get(4), nullptr);
}

TEST(BTreeTest, PutOverwrites) {
  BTree tree;
  EXPECT_TRUE(tree.Put(R(5, 1, 100)));
  EXPECT_FALSE(tree.Put(R(5, 2, 200)));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Get(5)->lsn, 2u);
  EXPECT_EQ(tree.Get(5)->digest, 200u);
}

TEST(BTreeTest, EraseExistingAndMissing) {
  BTree tree;
  tree.Put(R(1));
  tree.Put(R(2));
  EXPECT_TRUE(tree.Erase(1));
  EXPECT_FALSE(tree.Erase(1));
  EXPECT_FALSE(tree.Erase(99));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Get(1), nullptr);
}

TEST(BTreeTest, SequentialInsertSplitsAndStaysSorted) {
  BTree tree;
  const uint64_t n = 10000;
  for (uint64_t k = 0; k < n; ++k) tree.Put(R(k));
  EXPECT_EQ(tree.size(), n);
  EXPECT_GT(tree.Height(), 1);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  uint64_t expect = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.record().key, expect++);
  }
  EXPECT_EQ(expect, n);
}

TEST(BTreeTest, ReverseInsertOrder) {
  BTree tree;
  for (uint64_t k = 5000; k-- > 0;) tree.Put(R(k));
  EXPECT_EQ(tree.size(), 5000u);
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.Begin().record().key, 0u);
  EXPECT_EQ(*tree.MaxKey(), 4999u);
}

TEST(BTreeTest, SeekSemantics) {
  BTree tree;
  for (uint64_t k = 0; k < 100; k += 10) tree.Put(R(k));
  EXPECT_EQ(tree.Seek(0).record().key, 0u);
  EXPECT_EQ(tree.Seek(5).record().key, 10u);   // Lower bound.
  EXPECT_EQ(tree.Seek(10).record().key, 10u);  // Exact.
  EXPECT_EQ(tree.Seek(90).record().key, 90u);
  EXPECT_FALSE(tree.Seek(91).Valid());         // Past the end.
}

TEST(BTreeTest, SeekAcrossLeafBoundaries) {
  BTree tree;
  for (uint64_t k = 0; k < 1000; ++k) tree.Put(R(k * 2));
  // Seek to odd keys: should land on the next even key, even at leaf
  // boundaries.
  for (uint64_t k = 1; k < 1998; k += 194) {  // Odd keys only.
    auto it = tree.Seek(k);
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.record().key, k + 1);  // k odd -> next even is k+1.
  }
}

TEST(BTreeTest, EraseAllDrainsToEmptyRoot) {
  BTree tree;
  const uint64_t n = 3000;
  for (uint64_t k = 0; k < n; ++k) tree.Put(R(k));
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(tree.Erase(k)) << k;
    if (k % 500 == 0) {
      ASSERT_TRUE(tree.Validate().ok()) << "after erasing " << k;
    }
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 1);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(BTreeTest, EraseFromMiddleTriggersBorrowAndMerge) {
  BTree tree;
  for (uint64_t k = 0; k < 2000; ++k) tree.Put(R(k));
  // Erase a dense band in the middle to force underflows on interior
  // leaves and internal nodes.
  for (uint64_t k = 500; k < 1500; ++k) ASSERT_TRUE(tree.Erase(k));
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_EQ(tree.Seek(500).record().key, 1500u);
}

TEST(BTreeTest, ClearResets) {
  BTree tree;
  for (uint64_t k = 0; k < 100; ++k) tree.Put(R(k));
  tree.Clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Get(50), nullptr);
  tree.Put(R(7));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTreeTest, MoveTransfersContents) {
  BTree a;
  for (uint64_t k = 0; k < 200; ++k) a.Put(R(k));
  BTree b = std::move(a);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): documented.
  EXPECT_TRUE(b.Validate().ok());
  a.Put(R(1));  // Moved-from tree is reusable.
  EXPECT_EQ(a.size(), 1u);
}

TEST(BTreeTest, MaxKeyTracksMutations) {
  BTree tree;
  tree.Put(R(10));
  tree.Put(R(20));
  EXPECT_EQ(*tree.MaxKey(), 20u);
  tree.Erase(20);
  EXPECT_EQ(*tree.MaxKey(), 10u);
}

// ---- Randomized model checking against std::map --------------------

struct ModelCheckParams {
  uint64_t seed;
  uint64_t key_space;
  int operations;
};

class BTreeModelCheck : public ::testing::TestWithParam<ModelCheckParams> {};

TEST_P(BTreeModelCheck, MatchesStdMap) {
  const ModelCheckParams params = GetParam();
  Rng rng(params.seed);
  BTree tree;
  std::map<uint64_t, Record> model;

  for (int i = 0; i < params.operations; ++i) {
    const uint64_t key = rng.NextBelow(params.key_space);
    const double op = rng.NextDouble();
    if (op < 0.5) {
      const Record rec = R(key, i + 1, rng.Next());
      tree.Put(rec);
      model[key] = rec;
    } else if (op < 0.8) {
      const bool tree_erased = tree.Erase(key);
      const bool model_erased = model.erase(key) > 0;
      ASSERT_EQ(tree_erased, model_erased) << "key " << key << " op " << i;
    } else {
      const Record* got = tree.Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_EQ(got, nullptr) << "key " << key;
      } else {
        ASSERT_NE(got, nullptr) << "key " << key;
        ASSERT_EQ(*got, it->second);
      }
    }
    if (i % 2000 == 1999) {
      ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
    }
  }

  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  ASSERT_EQ(tree.size(), model.size());
  auto it = tree.Begin();
  for (const auto& [key, rec] : model) {
    ASSERT_TRUE(it.Valid());
    ASSERT_EQ(it.record(), rec);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, BTreeModelCheck,
    ::testing::Values(
        // Dense key space: heavy overwrite/delete churn.
        ModelCheckParams{1, 64, 20000},
        ModelCheckParams{2, 512, 20000},
        // Sparse: mostly inserts, deep trees.
        ModelCheckParams{3, 1u << 20, 20000},
        ModelCheckParams{4, 1u << 20, 20000},
        // Tiny space: constant borrow/merge at the root.
        ModelCheckParams{5, 8, 10000},
        ModelCheckParams{6, 100000, 40000}),
    [](const ::testing::TestParamInfo<ModelCheckParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_space" +
             std::to_string(info.param.key_space);
    });

// ---- Differential script with a pinned shape -----------------------

// Grows the tree to height 3 (splits cascading into a new root), then
// shrinks it back to height 2 (borrows, leaf and internal merges, root
// collapse), validating and checking against std::map after every
// mutation. The final shape was recorded from the vector-backed tree
// with parent pointers that the inline-node tree replaced: split points,
// separator push-up and borrow/merge order must match it exactly, since
// range partitions are cut at SubtreeSplitKeys().
TEST(BTreeShapeTest, DifferentialScriptKeepsPinnedShape) {
  Rng rng(2024);
  BTree tree;
  std::map<uint64_t, Record> model;
  int max_height = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBelow(8192);
    const double op = rng.NextDouble();
    const double put_share = i < 6000 ? 0.8 : 0.15;
    if (op < put_share) {
      const Record rec{key, static_cast<Lsn>(i + 1), rng.Next()};
      ASSERT_EQ(tree.Put(rec), model.count(key) == 0) << "op " << i;
      model[key] = rec;
    } else if (op < put_share + 0.75 * (1.0 - put_share)) {
      ASSERT_EQ(tree.Erase(key), model.erase(key) > 0) << "op " << i;
    } else {
      const auto it = tree.Seek(key);
      const auto expect = model.lower_bound(key);
      ASSERT_EQ(it.Valid(), expect != model.end()) << "op " << i;
      if (it.Valid()) {
        ASSERT_EQ(it.record(), expect->second) << "op " << i;
      }
      continue;
    }
    ASSERT_TRUE(tree.Validate().ok()) << "op " << i << ": "
                                      << tree.Validate().ToString();
    ASSERT_EQ(tree.size(), model.size());
    max_height = std::max(max_height, tree.Height());
  }

  EXPECT_EQ(max_height, 3);
  EXPECT_EQ(tree.size(), 2042u);
  EXPECT_EQ(tree.Height(), 2);
  EXPECT_EQ(tree.SubtreeSplitKeys(8),
            (std::vector<uint64_t>{814, 1840, 2801, 3848, 4589, 5448, 6319,
                                   7266}));
  EXPECT_EQ(tree.LeafSizes(),
            (std::vector<size_t>{35, 34, 32, 32, 35, 33, 32, 32, 32, 64, 33,
                                 52, 32, 43, 32, 33, 49, 34, 53, 35, 48, 58,
                                 32, 42, 32, 33, 45, 32, 34, 33, 35, 35, 34,
                                 56, 32, 38, 33, 39, 34, 33, 35, 38, 47, 34,
                                 36, 41, 34, 57, 33, 38, 55, 35, 44}));
}

// ---- Bulk append at the right edge ----------------------------------

/// Fingerprint of a tree's shape plus its records, for comparing two
/// trees built differently.
void ExpectSameTree(const BTree& got, const BTree& want) {
  ASSERT_TRUE(got.Validate().ok()) << got.Validate().ToString();
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got.Height(), want.Height());
  EXPECT_EQ(got.LeafSizes(), want.LeafSizes());
  for (size_t splits : {size_t{1}, size_t{8}, size_t{64}}) {
    EXPECT_EQ(got.SubtreeSplitKeys(splits), want.SubtreeSplitKeys(splits))
        << splits << " splits";
  }
  auto a = got.Begin();
  auto b = want.Begin();
  for (; a.Valid() && b.Valid(); a.Next(), b.Next()) {
    ASSERT_EQ(a.record(), b.record());
  }
  EXPECT_FALSE(a.Valid());
  EXPECT_FALSE(b.Valid());
}

/// Appends `n` sparse ascending rows above `preload` Put-loaded ones,
/// in one call, one row per call and seeded batches, and compares each
/// tree with the Put loop over all rows.
void ExpectAppendMatchesPutLoop(Rng* rng, size_t n, size_t preload) {
  SCOPED_TRACE("n = " + std::to_string(n) + ", preload " +
               std::to_string(preload));
  std::vector<Record> rows;
  uint64_t key = rng->NextBelow(10);
  for (size_t i = 0; i < preload + n; ++i) {
    rows.push_back(R(key, i + 1, rng->Next()));
    key += 1 + rng->NextBelow(3);
  }
  BTree by_put;
  for (const Record& r : rows) by_put.Put(r);
  for (int mode = 0; mode < 3; ++mode) {
    SCOPED_TRACE("mode " + std::to_string(mode));
    BTree appended;
    for (size_t i = 0; i < preload; ++i) appended.Put(rows[i]);
    for (size_t at = preload; at < rows.size();) {
      size_t len = rows.size() - at;
      if (mode == 1) len = 1;
      if (mode == 2) len = std::min(len, 1 + rng->NextBelow(200));
      appended.AppendSorted(rows.data() + at, len);
      at += len;
    }
    ExpectSameTree(appended, by_put);
  }
}

TEST(BTreeShapeTest, AppendSortedMatchesPutLoop) {
  Rng rng(4096);
  std::vector<size_t> sizes = {0, 1, 64, 65, 66, 4095, 4096, 8192, 16384};
  for (int i = 0; i < 6; ++i) sizes.push_back(rng.NextBelow(20000));
  for (size_t n : sizes) {
    // On an empty tree, and on a partly filled right leaf.
    ExpectAppendMatchesPutLoop(&rng, n, 0);
    ExpectAppendMatchesPutLoop(&rng, n, 1 + rng.NextBelow(300));
  }
}

TEST(BTreeShapeTest, AppendSortedThenMutateStaysValid) {
  // A bulk-loaded tree is an ordinary tree: point writes and erases
  // keep it equal to the Put-built one.
  std::vector<Record> rows;
  for (uint64_t k = 0; k < 5000; ++k) rows.push_back(R(k));
  BTree appended;
  appended.AppendSorted(rows.data(), rows.size());
  BTree by_put;
  for (const Record& r : rows) by_put.Put(r);
  Rng rng(9);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t key = rng.NextBelow(6000);
    if (rng.NextDouble() < 0.5) {
      ASSERT_EQ(appended.Put(R(key, 2)), by_put.Put(R(key, 2)));
    } else {
      ASSERT_EQ(appended.Erase(key), by_put.Erase(key));
    }
  }
  ExpectSameTree(appended, by_put);
}

// ---- Node search ------------------------------------------------------

/// Checks Get and Seek against `model` at every separator of `tree`,
/// one below and one above each, below the first and past the last.
void ExpectSearchMatchesModel(const BTree& tree,
                              const std::map<uint64_t, Record>& model) {
  // More splits than the tree has separators: every separator, sorted.
  const std::vector<uint64_t> seps = tree.SubtreeSplitKeys(1u << 20);
  std::vector<uint64_t> probes = {0, seps.back() + 1, seps.back() + 1000,
                                  UINT64_MAX};
  for (uint64_t sep : seps) {
    probes.insert(probes.end(), {sep - 1, sep, sep + 1});
  }
  for (uint64_t key : probes) {
    SCOPED_TRACE("key " + std::to_string(key));
    const auto found = model.find(key);
    const Record* got = tree.Get(key);
    ASSERT_EQ(got != nullptr, found != model.end());
    if (got != nullptr) {
      EXPECT_EQ(*got, found->second);
    }
    const auto it = tree.Seek(key);
    const auto expect = model.lower_bound(key);
    ASSERT_EQ(it.Valid(), expect != model.end());
    if (it.Valid()) {
      EXPECT_EQ(it.record(), expect->second);
    }
  }
}

TEST(BTreeSearchTest, EverySeparatorCountMatchesModel) {
  // Ascending Puts of keys 3, 6, 9, ... leave a two-level tree whose
  // root gains one separator per 32 rows after the first split. A node
  // at rest holds at most kFanout - 1 separators: the kFanout-th splits
  // it, so the last count grows a third level.
  BTree tree;
  std::map<uint64_t, Record> model;
  // A root leaf's split keys are its records, not separators.
  const auto separators = [&tree] {
    return tree.Height() == 1 ? 0 : tree.SubtreeSplitKeys(1u << 20).size();
  };
  uint64_t key = 3;
  for (size_t seps = 1; seps <= BTree::kFanout; ++seps) {
    SCOPED_TRACE("separators " + std::to_string(seps));
    while (separators() < seps) {
      const Record rec = R(key, key);
      tree.Put(rec);
      model[key] = rec;
      key += 3;
    }
    ASSERT_EQ(tree.Height(), seps < BTree::kFanout ? 2 : 3);
    ASSERT_TRUE(tree.Validate().ok());
    ExpectSearchMatchesModel(tree, model);
  }
}

TEST(BTreeSearchTest, RandomThreeLevelTreeMatchesModel) {
  // Random inserts and erases leave internal nodes at every fill from
  // half to full, on two levels.
  Rng rng(77);
  BTree tree;
  std::map<uint64_t, Record> model;
  for (int i = 0; i < 60000; ++i) {
    const uint64_t key = 2 * rng.NextBelow(100000);
    if (rng.NextDouble() < 0.8) {
      const Record rec = R(key, i + 1);
      tree.Put(rec);
      model[key] = rec;
    } else {
      tree.Erase(key);
      model.erase(key);
    }
  }
  ASSERT_EQ(tree.Height(), 3);
  ASSERT_TRUE(tree.Validate().ok());
  ExpectSearchMatchesModel(tree, model);
}

// ---- Newest-wins apply -------------------------------------------------

/// The apply PutNewest replaces: one Get and, unless the tree already
/// holds a version at least as new, one Put per record.
void PutNewestByLoop(BTree* tree, const std::vector<Record>& rows) {
  for (const Record& row : rows) {
    const Record* existing = tree->Get(row.key);
    if (existing != nullptr && existing->lsn >= row.lsn) continue;
    tree->Put(row);
  }
}

/// `n` rows with keys ascending from `from` in steps of 1 to 3, LSNs
/// `lsn` and digests drawn from `rng`.
std::vector<Record> AscendingRows(Rng* rng, uint64_t from, size_t n,
                                  Lsn lsn) {
  std::vector<Record> rows;
  for (uint64_t key = from; rows.size() < n; key += 1 + rng->NextBelow(3)) {
    rows.push_back(R(key, lsn, rng->Next()));
  }
  return rows;
}

TEST(BTreeShapeTest, PutNewestMatchesGetPutLoop) {
  Rng rng(29);
  BTree fast;
  BTree slow;
  const auto apply = [&](const std::vector<Record>& rows,
                         const std::string& what) {
    SCOPED_TRACE(what);
    fast.PutNewest(rows.data(), rows.size());
    PutNewestByLoop(&slow, rows);
    ExpectSameTree(fast, slow);
  };
  apply({}, "empty chunk into an empty tree");
  // The first key above the tree's maximum.
  const auto above_max = [&fast] {
    return fast.empty() ? uint64_t{0} : *fast.MaxKey() + 1;
  };
  Lsn lsn = 10;
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const size_t n = 1 + rng.NextBelow(600);
    // Above the maximum: the key-ordered snapshot's normal chunk.
    apply(AscendingRows(&rng, above_max() + rng.NextBelow(5), n, lsn),
          "above the maximum");
    // Straddling it: the chunk starts inside the table.
    const uint64_t max = above_max() - 1;
    const uint64_t back = std::min<uint64_t>(max, rng.NextBelow(300));
    apply(AscendingRows(&rng, max - back, n, lsn + 1),
          "straddling the maximum");
    // From below it, once older and once newer than what is stored.
    const uint64_t low = rng.NextBelow(above_max());
    apply(AscendingRows(&rng, low, n, 1), "below, older LSNs");
    apply(AscendingRows(&rng, low, n, lsn + 2), "below, newer LSNs");
    // Duplicate keys above the maximum, the newer version second and
    // then first, and a descending pair in an otherwise ascending run.
    uint64_t next = above_max();
    apply({R(next, lsn + 3), R(next, lsn + 4), R(next + 1, lsn + 4),
           R(next + 1, lsn + 3)},
          "duplicate keys");
    next = above_max();
    apply({R(next + 5, lsn + 3), R(next + 9, lsn + 3), R(next + 8, lsn + 3),
           R(next + 12, lsn + 3)},
          "descending pair");
    lsn += 5;
  }
  // The staged rows of a resumed snapshot go into a fresh table.
  std::vector<Record> all;
  for (auto it = slow.Begin(); it.Valid(); it.Next()) {
    all.push_back(it.record());
  }
  BTree fresh_fast;
  BTree fresh_slow;
  fresh_fast.PutNewest(all.data(), all.size());
  PutNewestByLoop(&fresh_slow, all);
  ExpectSameTree(fresh_fast, fresh_slow);
}

// ---- Leaf blocks --------------------------------------------------------

/// One mutation of a scripted run.
struct Step {
  enum Kind { kPut, kErase, kAppend, kClear };
  Kind kind;
  uint64_t key = 0;
  /// kAppend: AppendSorted of `rows` rows at keys key, key + 10, ...
  size_t rows = 1;
};

/// Key `j` of an ascending load in steps of 10, leaving gaps to insert
/// into.
uint64_t LoadKey(size_t j) { return 10 * (j + 1); }

/// Runs `script`, checking the tree against a std::map and Validate()
/// after every step.
void RunAgainstModel(const std::vector<Step>& script) {
  BTree tree;
  std::map<uint64_t, Record> model;
  Lsn lsn = 0;
  for (size_t s = 0; s < script.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    const Step& step = script[s];
    if (step.kind == Step::kPut) {
      const Record rec = R(step.key, ++lsn);
      ASSERT_EQ(tree.Put(rec), model.count(step.key) == 0);
      model[step.key] = rec;
    } else if (step.kind == Step::kErase) {
      ASSERT_EQ(tree.Erase(step.key), model.erase(step.key) > 0);
    } else if (step.kind == Step::kAppend) {
      std::vector<Record> rows;
      for (size_t r = 0; r < step.rows; ++r) {
        rows.push_back(R(step.key + 10 * r, ++lsn));
        model[rows.back().key] = rows.back();
      }
      tree.AppendSorted(rows.data(), rows.size());
    } else {
      tree.Clear();
      model.clear();
    }
    ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
    ASSERT_EQ(tree.size(), model.size());
    auto it = tree.Begin();
    for (const auto& [key, rec] : model) {
      ASSERT_TRUE(it.Valid());
      ASSERT_EQ(it.record(), rec);
      const Record* got = tree.Get(key);
      ASSERT_NE(got, nullptr) << "key " << key;
      ASSERT_EQ(*got, rec);
      it.Next();
    }
    ASSERT_FALSE(it.Valid());
  }
}

// A split leaves the lower half of a leaf in a small block of 33 slots
// that takes the leaf's parent slot, and a leaf that needs more room
// moves into a full block (BTree::Grow), re-pointing its parent slot or
// the root and both chain neighbours. The script drives every such
// move: the root leaf growing, a Put at the front, middle and end of a
// full small leaf, a grown leaf splitting below the root, borrows from
// both sides, and merges whose survivor grows, with and without a left
// sibling; then a seeded churn.
TEST(BTreeLeafBlockTest, RelocationScriptMatchesModel) {
  // An ascending load of kLoadRows leaves leaves 0..9 at 32 rows each in
  // small blocks (leaf i holds LoadKey(32i) .. LoadKey(32i + 31)) and
  // the rightmost at 33 in a full block, all under one root.
  constexpr size_t kLoadRows = 65 + 32 * 9;
  const auto first = [](size_t leaf) { return LoadKey(32 * leaf); };
  Rng rng(30);
  std::vector<Step> script;
  const auto put = [&script](uint64_t key) {
    script.push_back({Step::kPut, key});
  };
  const auto erase = [&script](uint64_t key) {
    script.push_back({Step::kErase, key});
  };

  // The root leaf grows on its 34th Put, and on an append past 33 rows.
  for (size_t j = 0; j < 34; ++j) put(LoadKey(j));
  script.push_back({Step::kClear});
  script.push_back({Step::kAppend, LoadKey(0), 40});
  for (size_t j = 40; j < kLoadRows;) {
    const size_t rows = std::min(kLoadRows - j, 1 + rng.NextBelow(50));
    script.push_back({Step::kAppend, LoadKey(j), rows});
    j += rows;
  }
  // Each small leaf fills its 33rd slot, then grows on the next Put: at
  // its front (leaf 0), in its middle (leaf 1) and at its end (leaf 2).
  put(5);
  put(1);
  put(LoadKey(32 + 15) + 5);
  put(LoadKey(32 + 16) + 5);
  put(LoadKey(2 * 32 + 31) + 5);
  put(LoadKey(2 * 32 + 31) + 6);
  // Leaf 1, grown to 34 rows, fills to 65 and splits.
  for (size_t j = 0; j < 31; ++j) put(LoadKey(32 + j) + 3);
  // Leaf 3 takes a 33rd row, so underfull leaf 4 borrows from its left;
  // leaf 6 takes one, so underfull leaf 5 (its left sibling back at 32)
  // borrows from its right.
  put(first(3) + 5);
  erase(first(4));
  put(first(6) + 5);
  erase(first(5));
  // Leaf 8 underflows between two 32-row leaves and merges into leaf 7,
  // which grows.
  erase(first(8));
  // On a fresh load the leftmost leaf has no left sibling: leaf 1 merges
  // into leaf 0, which grows.
  script.push_back({Step::kClear});
  for (size_t j = 0; j < kLoadRows; ++j) put(LoadKey(j));
  erase(first(0));
  // Churn that grows the tree, then drains most of it.
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = LoadKey(rng.NextBelow(2 * kLoadRows)) +
                         rng.NextBelow(3);
    if (rng.NextDouble() < (i < 2000 ? 0.7 : 0.2)) {
      put(key);
    } else {
      erase(key);
    }
  }
  RunAgainstModel(script);
}

TEST(BTreeShapeDeathTest, AppendSortedRejectsKeysNotAboveMax) {
  BTree tree;
  for (uint64_t k = 0; k < 200; k += 2) tree.Put(R(k));
  const Record equal[] = {R(198)};
  const Record below[] = {R(51)};
  const Record unsorted[] = {R(300), R(299)};
  const Record duplicate[] = {R(300), R(300)};
  EXPECT_DEATH(tree.AppendSorted(equal, 1), "not above the tree's maximum");
  EXPECT_DEATH(tree.AppendSorted(below, 1), "not above the tree's maximum");
  EXPECT_DEATH(tree.AppendSorted(unsorted, 2), "not strictly ascending");
  EXPECT_DEATH(tree.AppendSorted(duplicate, 2), "not strictly ascending");
}

}  // namespace
}  // namespace slacker::storage
