// Unit tests for the transaction generalization machinery: GenSpace
// (COAT/PCTA substrate) and HierarchyCut (Apriori/LRA/VPA substrate).

#include "algo/transaction/gen_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>

#include "algo/transaction/cut.h"
#include "common/random.h"
#include "hierarchy/hierarchy_builder.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

Dictionary AbcDict() {
  Dictionary dict;
  for (const char* s : {"a", "b", "c", "d"}) dict.GetOrAdd(s);
  return dict;
}

TEST(GenSpaceTest, IdentityStart) {
  Dictionary dict = AbcDict();
  GenSpace space({{0, 1}, {1, 2}, {0}}, dict);
  EXPECT_EQ(space.num_records(), 3u);
  EXPECT_EQ(space.GenOf(0), 0);
  EXPECT_EQ(space.Support(0), 2u);  // "a" in rows 0, 2
  EXPECT_EQ(space.Support(1), 2u);
  EXPECT_EQ(space.Support(3), 0u);  // "d" unused
  EXPECT_EQ(space.LiveGens().size(), 4u);
}

TEST(GenSpaceTest, MergeRewritesRecordsAndSupports) {
  Dictionary dict = AbcDict();
  GenSpace space({{0, 1}, {1, 2}, {0}}, dict);
  int32_t g = space.Merge(0, 1);  // {a,b}
  EXPECT_FALSE(space.IsLive(0));
  EXPECT_FALSE(space.IsLive(1));
  EXPECT_TRUE(space.IsLive(g));
  EXPECT_EQ(space.Covers(g).size(), 2u);
  EXPECT_EQ(space.GenOf(0), g);
  EXPECT_EQ(space.GenOf(1), g);
  EXPECT_EQ(space.Support(g), 3u);  // every row has a or b
  // Row 0 had both a and b: now a single gen occurrence.
  EXPECT_EQ(space.records()[0].size(), 1u);
  EXPECT_EQ(space.records()[1].size(), 2u);  // {a,b} and c
}

TEST(GenSpaceTest, SuppressRemovesEverywhere) {
  Dictionary dict = AbcDict();
  GenSpace space({{0, 1}, {0}}, dict);
  space.Suppress(0);
  EXPECT_EQ(space.GenOf(0), kSuppressedGen);
  EXPECT_EQ(space.records()[0].size(), 1u);
  EXPECT_TRUE(space.records()[1].empty());
  TransactionRecoding out = space.Export();
  EXPECT_EQ(out.suppressed_occurrences, 2u);
  EXPECT_EQ(out.item_map[0], kSuppressedGen);
}

TEST(GenSpaceTest, CostsAreMonotone) {
  Dictionary dict = AbcDict();
  GenSpace space({{0, 1, 2}, {0, 1}, {2, 3}}, dict);
  // Merging two frequent gens costs more than merging one frequent with one
  // rare gen of the same sizes (occurrence weighting).
  double cost_ab = space.MergeCost(0, 1);
  double cost_cd = space.MergeCost(2, 3);
  EXPECT_GT(cost_ab, 0);
  EXPECT_GT(cost_cd, 0);
  EXPECT_GE(cost_ab, cost_cd);  // a,b have 4 occurrences vs 3 for c,d
  EXPECT_GT(space.SuppressCost(0), space.MergeCost(0, 1));
}

TEST(GenSpaceTest, ItemsetSupport) {
  Dictionary dict = AbcDict();
  GenSpace space({{0, 1}, {0, 1}, {0}}, dict);
  EXPECT_EQ(space.ItemsetSupport({0, 1}), 2u);
  EXPECT_EQ(space.ItemsetSupport({0}), 3u);
  space.Suppress(1);
  EXPECT_EQ(space.ItemsetSupport({0, 1}), 0u);  // dead gen
}

TEST(GenSpaceTest, ExportCompactsGens) {
  Dictionary dict = AbcDict();
  GenSpace space({{0, 1}, {2}}, dict);
  int32_t g = space.Merge(0, 1);
  (void)g;
  TransactionRecoding out = space.Export();
  // Live gens: {a,b}, c, d -> all covers non-empty, indices dense.
  for (const auto& gen : out.gens) EXPECT_FALSE(gen.covers.empty());
  EXPECT_EQ(out.records.size(), 2u);
  for (const auto& rec : out.records) {
    for (int32_t gi : rec) {
      ASSERT_GE(gi, 0);
      ASSERT_LT(static_cast<size_t>(gi), out.gens.size());
    }
  }
  // Labels: merged gen shows braces.
  bool has_braced = false;
  for (const auto& gen : out.gens) {
    if (gen.label.front() == '{') has_braced = true;
  }
  EXPECT_TRUE(has_braced);
}

TEST(GenSpaceTest, InitFromExistingRecoding) {
  Dictionary dict = AbcDict();
  std::vector<std::vector<ItemId>> txns{{0, 1}, {2, 3}};
  TransactionRecoding seed;
  int32_t g01 = seed.AddGen("{a,b}", {0, 1});
  int32_t g2 = seed.AddGen("c", {2});
  seed.item_map = {g01, g01, g2, kSuppressedGen};
  GenSpace space(txns, dict, seed);
  EXPECT_EQ(space.GenOf(0), g01);
  EXPECT_EQ(space.GenOf(3), kSuppressedGen);
  EXPECT_EQ(space.Support(g01), 1u);
  EXPECT_EQ(space.records()[1].size(), 1u);  // c only; d suppressed
  TransactionRecoding out = space.Export();
  EXPECT_EQ(out.suppressed_occurrences, 1u);
}

// The row-list violation search must return exactly what a count tree over
// the current records returns, here its plainest form, a std::map of every
// itemset's support: the same itemsets, supports and order, whatever the cap.
// Spaces start at the identity (COAT, PCTA) or at a random recoding with
// suppressed items (VPA's phase 2), then take random merges and
// suppressions. After each, a search resumed where the last search of the
// trial's (m, k) found its first violation returns what a search from the
// first gen returns.
TEST(GenSpaceTest, FindViolationsMatchesCountTree) {
  Rng rng(20141104);
  size_t states = 0;
  for (int trial = 0; trial < 24; ++trial) {
    // The last few items occur in no record, as most of the domain does in
    // a small cluster's subset: their gens are live with support 0.
    size_t used_items = 10 + static_cast<size_t>(rng.UniformInt(0, 14));
    size_t num_items = used_items + static_cast<size_t>(rng.UniformInt(0, 4));
    size_t n = 20 + static_cast<size_t>(rng.UniformInt(0, 60));
    Dictionary dict;
    for (size_t i = 0; i < num_items; ++i) {
      dict.GetOrAdd("it" + std::to_string(i));
    }
    std::vector<std::vector<ItemId>> txns(n);
    for (auto& txn : txns) {
      size_t len = static_cast<size_t>(rng.UniformInt(0, 7));
      for (size_t idx : rng.Sample(used_items, len)) {
        txn.push_back(static_cast<ItemId>(idx));
      }
      std::sort(txn.begin(), txn.end());
    }
    const bool from_recoding = trial % 2 == 1;
    TransactionRecoding seed;
    if (from_recoding) {
      // Random groups of items become gens; some items start suppressed.
      std::vector<size_t> order = rng.Sample(num_items, num_items);
      seed.item_map.assign(num_items, kSuppressedGen);
      size_t pos = 0;
      while (pos < order.size()) {
        size_t len = static_cast<size_t>(rng.UniformInt(1, 4));
        std::vector<ItemId> covers;
        for (; pos < order.size() && covers.size() < len; ++pos) {
          if (rng.Bernoulli(0.1)) continue;
          covers.push_back(static_cast<ItemId>(order[pos]));
        }
        if (covers.empty()) continue;
        std::sort(covers.begin(), covers.end());
        int32_t g = seed.AddGen("g" + std::to_string(seed.gens.size()), covers);
        for (ItemId item : covers) seed.item_map[static_cast<size_t>(item)] = g;
      }
    }
    GenSpace space = from_recoding ? GenSpace(txns, dict, seed)
                                   : GenSpace(txns, dict);
    const int resume_m = static_cast<int>(rng.UniformInt(1, 3));
    const int resume_k = static_cast<int>(rng.UniformInt(2, 6));
    int32_t from = 0;
    for (int op = 0; op <= 30; ++op) {
      if (op > 0) {
        const auto& live = space.LiveGens();
        if (live.size() < 2) break;
        if (rng.Bernoulli(0.7)) {
          auto pick = rng.Sample(live.size(), 2);
          space.Merge(live[pick[0]], live[pick[1]]);
        } else {
          space.Suppress(live[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(live.size() - 1)))]);
        }
      }
      // m = 4 also files record tails below a prefix of two gens, from
      // the tails a one-gen prefix's second pass filed.
      for (int m = 1; m <= 4; ++m) {
        int k = static_cast<int>(rng.UniformInt(2, 6));
        for (size_t max : {size_t{1}, size_t{16}, SIZE_MAX}) {
          SCOPED_TRACE("trial " + std::to_string(trial) + " op " +
                       std::to_string(op) + " m " + std::to_string(m) +
                       " k " + std::to_string(k) + " max " +
                       std::to_string(max));
          ASSERT_NO_FATAL_FAILURE(testing::ExpectSameViolations(
              space.FindViolations(m, k, max),
              testing::EnumeratedKmViolations(space.records(), m, k, max)));
          ++states;
        }
      }
      std::vector<KmViolation> first;
      for (size_t max : {size_t{1}, size_t{16}, SIZE_MAX}) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " op " +
                     std::to_string(op) + " resumed at " +
                     std::to_string(from) + " max " + std::to_string(max));
        auto resumed = space.FindViolations(resume_m, resume_k, max, from);
        ASSERT_NO_FATAL_FAILURE(testing::ExpectSameViolations(
            resumed, space.FindViolations(resume_m, resume_k, max)));
        if (max == 16) first = std::move(resumed);
      }
      // Where COAT, PCTA and VPA's repair resume: the smallest first gen of
      // the violations found, or past every gen once there are none.
      from = INT32_MAX;
      for (const auto& v : first) from = std::min(from, v.itemset[0]);
    }
  }
  EXPECT_GT(states, 1000u);
}

TEST(HierarchyCutTest, StartsAtLeavesAndRaises) {
  Dataset ds = testing::SmallRtDataset(60, 91);
  ASSERT_OK_AND_ASSIGN(Hierarchy h, BuildItemHierarchy(ds));
  ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                       TransactionContext::Create(ds, &h));
  HierarchyCut cut(ctx);
  for (size_t i = 0; i < ctx.num_items(); ++i) {
    EXPECT_TRUE(h.IsLeaf(cut.NodeOf(static_cast<ItemId>(i))));
  }
  // Raise one root child: all covered items now map to it.
  NodeId child = h.children(h.root())[0];
  cut.RaiseTo(child);
  for (size_t i = 0; i < ctx.num_items(); ++i) {
    NodeId node = cut.NodeOf(static_cast<ItemId>(i));
    if (h.IsAncestorOrSelf(child, ctx.Leaf(static_cast<ItemId>(i)))) {
      EXPECT_EQ(node, child);
    } else {
      EXPECT_TRUE(h.IsLeaf(node));
    }
  }
}

TEST(HierarchyCutTest, MaterializeIsConsistent) {
  Dataset ds = testing::SmallRtDataset(60, 93);
  ASSERT_OK_AND_ASSIGN(Hierarchy h, BuildItemHierarchy(ds));
  ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                       TransactionContext::Create(ds, &h));
  HierarchyCut cut(ctx);
  cut.RaiseTo(h.children(h.root())[0]);
  std::vector<size_t> subset(ds.num_records());
  std::iota(subset.begin(), subset.end(), 0);
  CutRecoding view = cut.Materialize(subset);
  ASSERT_EQ(view.recoding.records.size(), subset.size());
  ASSERT_EQ(view.gen_nodes.size(), view.recoding.gens.size());
  // item_map agrees with NodeOf.
  for (size_t i = 0; i < ctx.num_items(); ++i) {
    int32_t g = view.recoding.item_map[i];
    ASSERT_NE(g, kSuppressedGen);
    EXPECT_EQ(view.gen_nodes[static_cast<size_t>(g)],
              cut.NodeOf(static_cast<ItemId>(i)));
  }
}

// Recode's view and Materialize's export must show the same gen ids, numbered
// by first use over item ids: the order AprioriLoop's keys follow. One
// CutRecords is reused across raises and across subsets of different sizes.
TEST(HierarchyCutTest, RecodeMatchesMaterializeAcrossRaises) {
  Dataset ds = testing::SmallRtDataset(80, 97);
  ASSERT_OK_AND_ASSIGN(Hierarchy h, BuildItemHierarchy(ds));
  ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                       TransactionContext::Create(ds, &h));
  std::vector<size_t> all(ds.num_records());
  std::iota(all.begin(), all.end(), 0);
  std::vector<size_t> odd;
  for (size_t row = 1; row < ds.num_records(); row += 2) odd.push_back(row);
  std::vector<size_t> few{7, 3, 3, 41};

  // Raise the parents of the second root child's leaves one by one, then
  // that child, then item 0's parent, then the root: cuts of every shape,
  // with gen ids that no longer follow node order.
  std::vector<NodeId> raises;
  NodeId second = h.children(h.root())[1];
  for (NodeId leaf : h.LeavesUnder(second)) raises.push_back(h.parent(leaf));
  raises.push_back(second);
  raises.push_back(h.parent(ctx.Leaf(0)));
  raises.push_back(h.root());

  HierarchyCut cut(ctx);
  CutRecords view;
  for (size_t step = 0; step <= raises.size(); ++step) {
    SCOPED_TRACE("after " + std::to_string(step) + " raises");
    for (const std::vector<size_t>* subset : {&all, &few, &odd}) {
      cut.Recode(*subset, &view);
      CutRecoding full = cut.Materialize(*subset);
      EXPECT_EQ(view.records, full.recoding.records);
      EXPECT_EQ(view.gen_nodes, full.gen_nodes);
      EXPECT_EQ(view.item_gen, full.recoding.item_map);
      ASSERT_EQ(full.recoding.gens.size(), full.gen_nodes.size());
      for (size_t g = 0; g < full.gen_nodes.size(); ++g) {
        EXPECT_EQ(full.recoding.gens[g].label, h.label(full.gen_nodes[g]));
      }
      // Gen ids follow first use over item ids.
      int32_t next = 0;
      for (int32_t g : full.recoding.item_map) {
        EXPECT_LE(g, next);
        if (g == next) ++next;
      }
    }
    if (step < raises.size()) cut.RaiseTo(raises[step]);
  }
  EXPECT_EQ(view.gen_nodes, std::vector<NodeId>{h.root()});

  cut.SuppressAll();
  cut.Recode(few, &view);
  CutRecoding suppressed = cut.Materialize(few);
  EXPECT_EQ(view.records, suppressed.recoding.records);
  EXPECT_EQ(view.records, std::vector<std::vector<int32_t>>(few.size()));
  EXPECT_TRUE(view.gen_nodes.empty());
  EXPECT_EQ(view.item_gen, suppressed.recoding.item_map);
}

TEST(HierarchyCutTest, SuppressAllEmptiesRecords) {
  Dataset ds = testing::SmallRtDataset(30, 95);
  ASSERT_OK_AND_ASSIGN(Hierarchy h, BuildItemHierarchy(ds));
  ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                       TransactionContext::Create(ds, &h));
  HierarchyCut cut(ctx);
  cut.SuppressAll();
  std::vector<size_t> subset{0, 1, 2};
  CutRecoding view = cut.Materialize(subset);
  for (const auto& rec : view.recoding.records) EXPECT_TRUE(rec.empty());
  EXPECT_GT(view.recoding.suppressed_occurrences, 0u);
}

}  // namespace
}  // namespace secreta
