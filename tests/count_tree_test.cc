// Tests for the count-tree: agreement with the reference (hash-based)
// support counting on hand-built and randomized inputs.

#include "algo/transaction/count_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "common/random.h"

namespace secreta {
namespace {

TEST(CountTreeTest, SupportsOfKnownItemsets) {
  std::vector<std::vector<int32_t>> records{{1, 2, 3}, {1, 2}, {2, 3}, {4}};
  CountTree tree(records, 2);
  EXPECT_EQ(tree.Support({1}), 2u);
  EXPECT_EQ(tree.Support({2}), 3u);
  EXPECT_EQ(tree.Support({1, 2}), 2u);
  EXPECT_EQ(tree.Support({2, 3}), 2u);
  EXPECT_EQ(tree.Support({1, 3}), 1u);
  EXPECT_EQ(tree.Support({4}), 1u);
  EXPECT_EQ(tree.Support({5}), 0u);
  EXPECT_EQ(tree.Support({1, 4}), 0u);
  // m = 2: triples are not stored.
  EXPECT_EQ(tree.Support({1, 2, 3}), 0u);
}

TEST(CountTreeTest, EmptyItemsetHasZeroSupport) {
  CountTree tree({{1}}, 1);
  EXPECT_EQ(tree.Support({}), 0u);
}

TEST(CountTreeTest, FindViolationsMatchesReference) {
  std::vector<std::vector<int32_t>> records{{1, 2, 3}, {1, 2}, {2, 3}, {4}};
  for (int m = 1; m <= 3; ++m) {
    for (int k = 2; k <= 4; ++k) {
      auto tree_violations =
          CountTree(records, m).FindViolations(k, 1000);
      auto reference = FindKmViolations(records, k, m, nullptr, 1000);
      // Same sets of violating itemsets.
      std::map<std::vector<int32_t>, size_t> a, b;
      for (const auto& v : tree_violations) a[v.itemset] = v.support;
      for (const auto& v : reference) b[v.itemset] = v.support;
      EXPECT_EQ(a, b) << "k=" << k << " m=" << m;
    }
  }
}

TEST(CountTreeTest, RandomizedAgreementWithReference) {
  Rng rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<int32_t>> records;
    size_t n = 40;
    for (size_t r = 0; r < n; ++r) {
      std::vector<int32_t> rec;
      size_t len = static_cast<size_t>(rng.UniformInt(0, 6));
      for (size_t idx : rng.Sample(12, len)) {
        rec.push_back(static_cast<int32_t>(idx));
      }
      std::sort(rec.begin(), rec.end());
      records.push_back(std::move(rec));
    }
    int m = static_cast<int>(rng.UniformInt(1, 3));
    int k = static_cast<int>(rng.UniformInt(2, 6));
    auto tree_violations = CountTree(records, m).FindViolations(k, 100000);
    auto reference = FindKmViolations(records, k, m, nullptr, 100000);
    std::map<std::vector<int32_t>, size_t> a, b;
    for (const auto& v : tree_violations) a[v.itemset] = v.support;
    for (const auto& v : reference) b[v.itemset] = v.support;
    EXPECT_EQ(a, b) << "trial " << trial << " k=" << k << " m=" << m;
  }
}

TEST(CountTreeTest, ViolationsSortedBySupport) {
  std::vector<std::vector<int32_t>> records{{1}, {1}, {1}, {2}, {3}, {3}};
  auto violations = CountTree(records, 1).FindViolations(3, 10);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_LE(violations[0].support, violations[1].support);
  EXPECT_EQ(violations[0].itemset, (std::vector<int32_t>{2}));
}

TEST(CountTreeTest, MaxViolationsCap) {
  std::vector<std::vector<int32_t>> records{{1}, {2}, {3}, {4}};
  auto violations = CountTree(records, 1).FindViolations(2, 2);
  EXPECT_EQ(violations.size(), 2u);
}

// Every itemset of size <= m over the keys [0, keys).
std::vector<std::vector<int32_t>> AllItemsets(int32_t keys, int m) {
  std::vector<std::vector<int32_t>> itemsets;
  for (int32_t a = 0; a < keys; ++a) {
    itemsets.push_back({a});
    for (int32_t b = a + 1; m >= 2 && b < keys; ++b) {
      itemsets.push_back({a, b});
      for (int32_t c = b + 1; m >= 3 && c < keys; ++c) {
        itemsets.push_back({a, b, c});
      }
    }
  }
  return itemsets;
}

// `tree` answers exactly like `fresh`: every support, and every violation
// report in order.
void ExpectSameAnswers(const CountTree& tree, const CountTree& fresh,
                       const std::vector<std::vector<int32_t>>& itemsets) {
  for (const auto& itemset : itemsets) {
    ASSERT_EQ(tree.Support(itemset), fresh.Support(itemset))
        << ::testing::PrintToString(itemset);
  }
  for (int k : {2, 3, 5}) {
    for (size_t max_violations : {size_t{1}, size_t{3}, SIZE_MAX}) {
      auto got = tree.FindViolations(k, max_violations);
      auto want = fresh.FindViolations(k, max_violations);
      ASSERT_EQ(got.size(), want.size()) << "k=" << k;
      for (size_t v = 0; v < got.size(); ++v) {
        EXPECT_EQ(got[v].itemset, want[v].itemset) << "k=" << k;
        EXPECT_EQ(got[v].support, want[v].support) << "k=" << k;
      }
    }
  }
}

// A tree kept in step by Update must answer exactly like a tree built afresh
// over the current records. The steps mix the remove-then-add of a changed
// record with records removed outright and records added.
TEST(CountTreeTest, UpdateMatchesRebuild) {
  constexpr int32_t kKeys = 12;
  Rng rng(4321);
  auto random_record = [&] {
    std::vector<int32_t> rec;
    size_t len = static_cast<size_t>(rng.UniformInt(0, 6));
    for (size_t idx : rng.Sample(static_cast<size_t>(kKeys), len)) {
      rec.push_back(static_cast<int32_t>(idx));
    }
    std::sort(rec.begin(), rec.end());
    return rec;
  };
  for (int m = 1; m <= 3; ++m) {
    const auto itemsets = AllItemsets(kKeys, m);
    std::vector<std::vector<int32_t>> records(30);
    for (auto& rec : records) rec = random_record();
    CountTree tree(records, m);
    for (int step = 0; step < 80; ++step) {
      SCOPED_TRACE("m=" + std::to_string(m) + " step " + std::to_string(step));
      int action = static_cast<int>(rng.UniformInt(0, 3));
      auto last = static_cast<int64_t>(records.size()) - 1;
      size_t j = records.empty()
                     ? 0
                     : static_cast<size_t>(rng.UniformInt(0, last));
      if (records.empty() || action == 0) {
        records.push_back(random_record());
        tree.Update(records.back(), +1);
      } else if (action == 1) {
        tree.Update(records[j], -1);
        records.erase(records.begin() + static_cast<ptrdiff_t>(j));
      } else {
        tree.Update(records[j], -1);
        records[j] = random_record();
        tree.Update(records[j], +1);
      }
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameAnswers(tree, CountTree(records, m), itemsets));
    }
  }
}

// The AA raise's partial update: a raise gives every key of a range
// [lo, hi) the key lo, and Replace moves only the itemsets a changed record
// lost or gained. Records that held lo keep it (nothing is added); the
// others gain it.
TEST(CountTreeTest, ReplaceMatchesRebuildAcrossKeyCollapses) {
  constexpr int32_t kKeys = 16;
  Rng rng(8642);
  for (int m = 1; m <= 3; ++m) {
    const auto itemsets = AllItemsets(kKeys, m);
    std::vector<std::vector<int32_t>> records(40);
    for (auto& rec : records) {
      size_t len = static_cast<size_t>(rng.UniformInt(0, 8));
      for (size_t idx : rng.Sample(static_cast<size_t>(kKeys), len)) {
        rec.push_back(static_cast<int32_t>(idx));
      }
      std::sort(rec.begin(), rec.end());
    }
    CountTree tree(records, m);
    for (int step = 0; step < 30; ++step) {
      SCOPED_TRACE("m=" + std::to_string(m) + " step " + std::to_string(step));
      auto lo = static_cast<int32_t>(rng.UniformInt(0, kKeys - 2));
      auto hi = static_cast<int32_t>(
          std::min<int64_t>(kKeys, lo + 2 + rng.UniformInt(0, 4)));
      for (auto& rec : records) {
        if (!rng.Bernoulli(0.7)) continue;
        std::vector<int32_t> after;
        for (int32_t key : rec) after.push_back(key >= lo && key < hi ? lo : key);
        std::sort(after.begin(), after.end());
        after.erase(std::unique(after.begin(), after.end()), after.end());
        if (after == rec) continue;
        tree.Replace(rec, after);
        rec = std::move(after);
      }
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameAnswers(tree, CountTree(records, m), itemsets));
    }
  }
}

}  // namespace
}  // namespace secreta
