// Tests for the k^m violation walk: agreement with the reference (hash-based)
// support counting and with a std::map enumerator of every itemset on
// hand-built and randomized inputs, and the AA loop's resumed searches
// against an AA that recounts every itemset after every raise.

#include "algo/transaction/violation_walk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "algo/transaction/apriori.h"
#include "algo/transaction/cut.h"
#include "common/random.h"
#include "hierarchy/hierarchy_builder.h"
#include "metrics/information_loss.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

using testing::EnumeratedKmViolations;
using testing::ExpectSameViolations;

// The ascending rows holding each key of `records`.
std::vector<std::vector<uint32_t>> KeyRows(
    const std::vector<std::vector<int32_t>>& records) {
  std::vector<std::vector<uint32_t>> rows;
  for (size_t r = 0; r < records.size(); ++r) {
    for (int32_t key : records[r]) {
      if (static_cast<size_t>(key) >= rows.size()) {
        rows.resize(static_cast<size_t>(key) + 1);
      }
      rows[static_cast<size_t>(key)].push_back(static_cast<uint32_t>(r));
    }
  }
  return rows;
}

std::vector<KmViolation> Walk(const std::vector<std::vector<int32_t>>& records,
                              int m, int k, size_t max_violations,
                              int32_t from = 0) {
  return WalkKmViolations(KeyRows(records), records, m, k, max_violations,
                          from);
}

std::map<std::vector<int32_t>, size_t> AsMap(
    const std::vector<KmViolation>& violations) {
  std::map<std::vector<int32_t>, size_t> out;
  for (const auto& v : violations) out[v.itemset] = v.support;
  return out;
}

// With k above every support, every itemset some record holds violates, so
// the walk reports each with its support.
TEST(ViolationWalkTest, SupportsOfKnownItemsets) {
  std::vector<std::vector<int32_t>> records{{1, 2, 3}, {1, 2}, {2, 3}, {4}};
  auto support = AsMap(Walk(records, 2, 100, SIZE_MAX));
  std::map<std::vector<int32_t>, size_t> want{
      {{1}, 2},
      {{2}, 3},
      {{3}, 2},
      {{4}, 1},
      {{1, 2}, 2},
      {{1, 3}, 1},
      {{2, 3}, 2},
  };
  // m = 2: triples are not counted; absent itemsets are not reported.
  EXPECT_EQ(support, want);
}

TEST(ViolationWalkTest, NeverReportsTheEmptyItemset) {
  EXPECT_TRUE(Walk({{}, {}}, 2, 100, SIZE_MAX).empty());
  auto violations = Walk({{1}, {}}, 1, 100, SIZE_MAX);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].itemset, (std::vector<int32_t>{1}));
}

TEST(ViolationWalkTest, FindViolationsMatchesReference) {
  std::vector<std::vector<int32_t>> records{{1, 2, 3}, {1, 2}, {2, 3}, {4}};
  for (int m = 1; m <= 3; ++m) {
    for (int k = 2; k <= 4; ++k) {
      SCOPED_TRACE("k=" + std::to_string(k) + " m=" + std::to_string(m));
      auto walked = Walk(records, m, k, 1000);
      auto reference = FindKmViolations(records, k, m, nullptr, 1000);
      EXPECT_EQ(AsMap(walked), AsMap(reference));
      ExpectSameViolations(walked,
                           EnumeratedKmViolations(records, m, k, 1000));
    }
  }
}

// Random records: the same violations as the reference, the enumerator's
// exact vector whatever the cap, and a walk started at any key returns the
// enumerator's violations whose first key is at least that key.
TEST(ViolationWalkTest, RandomizedAgreementWithReference) {
  Rng rng(1234);
  for (int trial = 0; trial < 40; ++trial) {
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
    SCOPED_TRACE("trial " + std::to_string(trial) + " k=" +
                 std::to_string(k) + " m=" + std::to_string(m));
    EXPECT_EQ(AsMap(Walk(records, m, k, 100000)),
              AsMap(FindKmViolations(records, k, m, nullptr, 100000)));
    for (size_t max : {size_t{1}, size_t{3}, size_t{16}, SIZE_MAX}) {
      for (int32_t from = 0; from <= 12; ++from) {
        SCOPED_TRACE("max " + std::to_string(max) + " from " +
                     std::to_string(from));
        ASSERT_NO_FATAL_FAILURE(ExpectSameViolations(
            Walk(records, m, k, max, from),
            EnumeratedKmViolations(records, m, k, max, from)));
      }
    }
  }
}

TEST(ViolationWalkTest, ViolationsSortedBySupport) {
  std::vector<std::vector<int32_t>> records{{1}, {1}, {1}, {2}, {3}, {3}};
  auto violations = Walk(records, 1, 3, 10);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_LE(violations[0].support, violations[1].support);
  EXPECT_EQ(violations[0].itemset, (std::vector<int32_t>{2}));
}

TEST(ViolationWalkTest, MaxViolationsCap) {
  std::vector<std::vector<int32_t>> records{{1}, {2}, {3}, {4}};
  auto violations = Walk(records, 1, 2, 2);
  EXPECT_EQ(violations.size(), 2u);
}

// One size of AA as [10] states it, recounting every itemset after every
// raise: while the first violation of size <= `size` over the items in the
// leaf positions [leaf_begin, leaf_end) has a cut node below depth
// `min_depth`, raise the cheapest such node's parent. Recode numbers gens by
// their first items, the AA loop's keys, so its first violation is the
// loop's. Returns false when a violation is left at the ceiling.
bool RecountingAaSize(HierarchyCut* cut, const std::vector<size_t>& subset,
                      int32_t leaf_begin, int32_t leaf_end, int size, int k,
                      int min_depth) {
  const Hierarchy& h = cut->context().hierarchy();
  CutRecords view;
  while (true) {
    cut->Recode(subset, &view);
    std::vector<std::vector<int32_t>> records;
    for (const auto& rec : view.records) {
      std::vector<int32_t> counted;
      for (int32_t g : rec) {
        int32_t pos =
            h.leaf_interval_begin(view.gen_nodes[static_cast<size_t>(g)]);
        if (pos >= leaf_begin && pos < leaf_end) counted.push_back(g);
      }
      records.push_back(std::move(counted));
    }
    auto violations = EnumeratedKmViolations(records, size, k, 1);
    if (violations.empty()) return true;
    NodeId best_target = kNoNode;
    double best_cost = 0;
    for (int32_t g : violations[0].itemset) {
      NodeId node = view.gen_nodes[static_cast<size_t>(g)];
      if (h.depth(node) <= min_depth) continue;
      double cost = NodeNcp(h, h.parent(node));
      if (best_target == kNoNode || cost < best_cost) {
        best_target = h.parent(node);
        best_cost = cost;
      }
    }
    if (best_target == kNoNode) return false;
    cut->RaiseTo(best_target);
  }
}

void ExpectSameCut(const HierarchyCut& got, const HierarchyCut& want) {
  ASSERT_EQ(got.suppressed(), want.suppressed());
  for (size_t item = 0; item < got.context().num_items(); ++item) {
    ASSERT_EQ(got.NodeOf(static_cast<ItemId>(item)),
              want.NodeOf(static_cast<ItemId>(item)))
        << "item " << item;
  }
}

// A random subset of the `n` rows, some of them twice.
std::vector<size_t> RandomSubset(Rng* rng, size_t n) {
  std::vector<size_t> subset;
  for (size_t row = 0; row < n; ++row) {
    if (rng->Bernoulli(0.6)) subset.push_back(row);
    if (rng->Bernoulli(0.05)) subset.push_back(row);
  }
  return subset;
}

// Apriori and LRA's loop: sizes 1..m with the root allowed, all items
// suppressed once a violation is left at the root.
TEST(AprioriLoopTest, RunAprioriLoopMatchesRecountingAa) {
  Rng rng(20140324);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 40 + static_cast<size_t>(rng.UniformInt(0, 120));
    Dataset ds = testing::SmallRtDataset(n, 300 + static_cast<uint64_t>(trial));
    ASSERT_OK_AND_ASSIGN(Hierarchy h, BuildItemHierarchy(ds));
    ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                         TransactionContext::Create(ds, &h));
    std::vector<size_t> subset = RandomSubset(&rng, n);
    int k = static_cast<int>(rng.UniformInt(2, 6));
    int m = static_cast<int>(rng.UniformInt(1, 3));
    // Fewer than k records leave a violation at the root: all suppressed.
    if (trial % 5 == 4) subset.resize(static_cast<size_t>(k - 1));
    SCOPED_TRACE("trial " + std::to_string(trial) + " k=" +
                 std::to_string(k) + " m=" + std::to_string(m));
    HierarchyCut loop_cut(ctx);
    ASSERT_OK(RunAprioriLoop(&loop_cut, subset, k, m));
    HierarchyCut want(ctx);
    auto num_leaves = static_cast<int32_t>(h.num_leaves());
    for (int size = 1; size <= m; ++size) {
      if (!RecountingAaSize(&want, subset, 0, num_leaves, size, k, 0)) {
        want.SuppressAll();
        break;
      }
    }
    ExpectSameCut(loop_cut, want);
  }
}

// VPA's phase 1: one loop per part of whole root-child subtrees, raises
// kept below the root (min_depth 1), every size run whatever the last
// returned.
TEST(AprioriLoopTest, PerPartLoopMatchesRecountingAa) {
  Rng rng(20140325);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 40 + static_cast<size_t>(rng.UniformInt(0, 120));
    Dataset ds = testing::SmallRtDataset(n, 500 + static_cast<uint64_t>(trial));
    ASSERT_OK_AND_ASSIGN(Hierarchy h, BuildItemHierarchy(ds));
    ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                         TransactionContext::Create(ds, &h));
    std::vector<size_t> subset = RandomSubset(&rng, n);
    int k = static_cast<int>(rng.UniformInt(2, 6));
    int m = static_cast<int>(rng.UniformInt(1, 3));
    SCOPED_TRACE("trial " + std::to_string(trial) + " k=" +
                 std::to_string(k) + " m=" + std::to_string(m));
    const auto& children = h.children(h.root());
    ASSERT_GE(children.size(), 2u);
    size_t split = children.size() / 2;
    std::vector<std::pair<int32_t, int32_t>> parts{
        {h.leaf_interval_begin(children.front()),
         h.leaf_interval_end(children[split - 1])},
        {h.leaf_interval_begin(children[split]),
         h.leaf_interval_end(children.back())}};
    HierarchyCut loop_cut(ctx);
    HierarchyCut want(ctx);
    for (const auto& [begin, end] : parts) {
      AprioriLoop loop(&loop_cut, subset, begin, end);
      for (int size = 1; size <= m; ++size) {
        ASSERT_OK_AND_ASSIGN(bool done,
                             loop.RunSize(size, k, /*min_depth=*/1, nullptr));
        EXPECT_EQ(done, RecountingAaSize(&want, subset, begin, end, size, k,
                                         /*min_depth=*/1))
            << "part [" << begin << ", " << end << ") size " << size;
      }
    }
    ExpectSameCut(loop_cut, want);
  }
}

}  // namespace
}  // namespace secreta
