// Unit tests for core types: params, contexts, equivalence, guarantees,
// recoding application.

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "common/random.h"
#include "core/equivalence.h"
#include "core/guarantees.h"
#include "core/params.h"
#include "core/recoding.h"
#include "hierarchy/hierarchy_builder.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

TEST(ParamsTest, SetGetByName) {
  AnonParams params;
  ASSERT_OK(params.Set("k", 7));
  ASSERT_OK(params.Set("m", 3));
  ASSERT_OK(params.Set("delta", 0.5));
  EXPECT_EQ(params.k, 7);
  EXPECT_EQ(params.m, 3);
  EXPECT_DOUBLE_EQ(params.delta, 0.5);
  EXPECT_DOUBLE_EQ(params.Get("k").value(), 7.0);
  EXPECT_FALSE(params.Set("bogus", 1).ok());
  EXPECT_FALSE(params.Get("bogus").ok());
}

TEST(ParamsTest, Validation) {
  AnonParams params;
  EXPECT_OK(params.Validate());
  params.k = 1;
  EXPECT_FALSE(params.Validate().ok());
  params.k = 2;
  params.m = 0;
  EXPECT_FALSE(params.Validate().ok());
  params.m = 1;
  params.rho = 1.5;
  EXPECT_FALSE(params.Validate().ok());
}

// Set and Validate refuse NaN, infinities and integers an int cannot hold:
// a NaN delta made the RT merger merge every cluster, and k=6e9 used to wrap
// to k=1705032704.
TEST(ParamsTest, RejectsNonFiniteAndOutOfRangeValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const char* name :
       {"k", "m", "delta", "lra_partitions", "vpa_parts", "rho"}) {
    SCOPED_TRACE(name);
    AnonParams params;
    const AnonParams before = params;
    EXPECT_FALSE(params.Set(name, nan).ok());
    EXPECT_FALSE(params.Set(name, inf).ok());
    EXPECT_FALSE(params.Set(name, -inf).ok());
    EXPECT_EQ(params.Get(name).value(), before.Get(name).value());
  }
  for (const char* name : {"k", "m", "lra_partitions", "vpa_parts"}) {
    SCOPED_TRACE(name);
    AnonParams params;
    const AnonParams before = params;
    EXPECT_FALSE(params.Set(name, 4294967298.0).ok());
    EXPECT_FALSE(params.Set(name, 6e9).ok());
    EXPECT_FALSE(params.Set(name, -6e9).ok());
    EXPECT_FALSE(params.Set(name, 2147483647.5).ok());  // rounds past INT_MAX
    EXPECT_EQ(params.Get(name).value(), before.Get(name).value());
    ASSERT_OK(params.Set(name, 2147483647.0));
    EXPECT_EQ(params.Get(name).value(), 2147483647.0);
  }
  AnonParams params;
  ASSERT_OK(params.Set("k", 2.5));  // halves round away from zero
  EXPECT_EQ(params.k, 3);

  params = AnonParams();
  params.delta = nan;
  EXPECT_FALSE(params.Validate().ok());
  params.delta = inf;
  EXPECT_FALSE(params.Validate().ok());
  params = AnonParams();
  params.rho = nan;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(ContextTest, RelationalContextBindsQids) {
  Dataset ds = testing::SmallRtDataset(50);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  EXPECT_EQ(ctx.num_qi(), 4u);  // Age, Gender, Origin, Occupation
  for (size_t r = 0; r < 10; ++r) {
    for (size_t qi = 0; qi < ctx.num_qi(); ++qi) {
      NodeId leaf = ctx.Leaf(r, qi);
      EXPECT_TRUE(ctx.hierarchy(qi).IsLeaf(leaf));
      EXPECT_EQ(ctx.hierarchy(qi).label(leaf),
                ds.value_string(r, ctx.qi_column(qi)).raw());
    }
  }
}

TEST(ContextTest, MissingHierarchyFails) {
  Dataset ds = testing::SmallRtDataset(50);
  std::vector<Hierarchy> empty(ds.num_relational());
  EXPECT_FALSE(RelationalContext::Create(ds, empty).ok());
  EXPECT_FALSE(RelationalContext::Create(ds, {}).ok());
}

TEST(ContextTest, TransactionContextOptionalHierarchy) {
  Dataset ds = testing::SmallRtDataset(50);
  ASSERT_OK_AND_ASSIGN(TransactionContext no_h,
                       TransactionContext::Create(ds, nullptr));
  EXPECT_FALSE(no_h.has_hierarchy());
  ASSERT_OK_AND_ASSIGN(Hierarchy h, BuildItemHierarchy(ds));
  ASSERT_OK_AND_ASSIGN(TransactionContext with_h,
                       TransactionContext::Create(ds, &h));
  EXPECT_TRUE(with_h.has_hierarchy());
  for (size_t i = 0; i < with_h.num_items(); ++i) {
    NodeId leaf = with_h.Leaf(static_cast<ItemId>(i));
    EXPECT_EQ(with_h.ItemOfLeaf(leaf), static_cast<ItemId>(i));
  }
}

TEST(EquivalenceTest, GroupsByVector) {
  RelationalRecoding recoding(4, 2);
  // rows 0,2 identical; 1,3 identical.
  recoding.set(0, 0, 1);
  recoding.set(0, 1, 2);
  recoding.set(2, 0, 1);
  recoding.set(2, 1, 2);
  recoding.set(1, 0, 5);
  recoding.set(1, 1, 5);
  recoding.set(3, 0, 5);
  recoding.set(3, 1, 5);
  EquivalenceClasses classes = GroupByRecoding(recoding);
  EXPECT_EQ(classes.num_groups(), 2u);
  EXPECT_EQ(classes.MinGroupSize(), 2u);
  EXPECT_EQ(classes.group_of[0], classes.group_of[2]);
  EXPECT_NE(classes.group_of[0], classes.group_of[1]);
}

// Reference grouping: a std::map from QI vector to class id, ids given in
// order of first appearance, each class's records in ascending order.
struct MapGrouping {
  std::vector<uint32_t> group_of;
  std::vector<std::vector<uint32_t>> groups;
};

template <typename Get>
MapGrouping GroupWithMap(size_t num_records, size_t width, Get get) {
  MapGrouping out;
  std::map<std::vector<NodeId>, uint32_t> ids;
  for (size_t r = 0; r < num_records; ++r) {
    std::vector<NodeId> key(width);
    for (size_t q = 0; q < width; ++q) key[q] = get(r, q);
    auto [it, inserted] =
        ids.emplace(key, static_cast<uint32_t>(out.groups.size()));
    if (inserted) out.groups.emplace_back();
    out.groups[it->second].push_back(static_cast<uint32_t>(r));
    out.group_of.push_back(it->second);
  }
  return out;
}

void ExpectSameClasses(const EquivalenceClasses& got, const MapGrouping& want) {
  ASSERT_EQ(got.group_of, want.group_of);
  ASSERT_EQ(got.num_groups(), want.groups.size());
  for (size_t c = 0; c < want.groups.size(); ++c) {
    std::vector<uint32_t> members(got.groups[c].begin(), got.groups[c].end());
    ASSERT_EQ(members, want.groups[c]) << "class " << c;
  }
}

TEST(EquivalenceTest, GroupByRecodingMatchesMapGrouping) {
  Rng rng(2611);
  for (int trial = 0; trial < 60; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(0, 400));
    size_t q = static_cast<size_t>(rng.UniformInt(1, 5));
    // From one value per QI (all keys equal) to mostly distinct keys; the
    // node ids spread over many bits.
    int64_t values = rng.UniformInt(1, 40);
    int32_t scale = static_cast<int32_t>(rng.UniformInt(1, 1 << 20));
    RelationalRecoding recoding(n, q);
    for (size_t r = 0; r < n; ++r) {
      for (size_t qi = 0; qi < q; ++qi) {
        recoding.set(r, qi,
                     static_cast<NodeId>(rng.UniformInt(0, values - 1)) * scale);
      }
    }
    ExpectSameClasses(GroupByRecoding(recoding),
                      GroupWithMap(n, q, [&](size_t r, size_t qi) {
                        return recoding.at(r, qi);
                      }));
  }
}

TEST(EquivalenceTest, AllEqualAndAllDistinctKeys) {
  const size_t n = 20000;
  RelationalRecoding equal(n, 3);
  RelationalRecoding distinct(n, 2);
  for (size_t r = 0; r < n; ++r) {
    for (size_t qi = 0; qi < 3; ++qi) equal.set(r, qi, 7);
    // Keys that differ only in one QI and share their low bits.
    distinct.set(r, 0, 5);
    distinct.set(r, 1, static_cast<NodeId>(r << 10));
  }
  EquivalenceClasses one = GroupByRecoding(equal);
  ASSERT_EQ(one.num_groups(), 1u);
  EXPECT_EQ(one.MinGroupSize(), n);
  ExpectSameClasses(one, GroupWithMap(n, 3, [&](size_t r, size_t qi) {
                      return equal.at(r, qi);
                    }));
  EquivalenceClasses all = GroupByRecoding(distinct);
  ASSERT_EQ(all.num_groups(), n);
  EXPECT_EQ(all.MinGroupSize(), 1u);
  ExpectSameClasses(all, GroupWithMap(n, 2, [&](size_t r, size_t qi) {
                      return distinct.at(r, qi);
                    }));
  EquivalenceClasses none = GroupByRecoding(RelationalRecoding(0, 2));
  EXPECT_EQ(none.num_groups(), 0u);
  EXPECT_EQ(none.MinGroupSize(), 0u);
}

TEST(EquivalenceTest, GroupByOriginalMatchesMapGrouping) {
  for (uint64_t seed : {3u, 17u}) {
    Dataset ds = testing::SmallRtDataset(300, seed);
    ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
    ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                         RelationalContext::Create(ds, hierarchies));
    ExpectSameClasses(GroupByOriginal(ctx),
                      GroupWithMap(ctx.num_records(), ctx.num_qi(),
                                   [&](size_t r, size_t qi) {
                                     return ctx.Leaf(r, qi);
                                   }));
  }
}

TEST(GuaranteesTest, KAnonymity) {
  RelationalRecoding recoding(3, 1);
  recoding.set(0, 0, 1);
  recoding.set(1, 0, 1);
  recoding.set(2, 0, 2);
  EXPECT_TRUE(IsKAnonymous(recoding, 1));
  EXPECT_FALSE(IsKAnonymous(recoding, 2));
}

TEST(GuaranteesTest, KmViolationDetection) {
  // gens: itemset {1,2} appears once -> violates k=2, m=2.
  std::vector<std::vector<int32_t>> records{{1, 2}, {1}, {2}};
  EXPECT_TRUE(IsKmAnonymous(records, 2, 1));   // singletons fine
  EXPECT_FALSE(IsKmAnonymous(records, 2, 2));  // pair support 1
  auto violations = FindKmViolations(records, 2, 2, nullptr, 10);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].itemset, (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(violations[0].support, 1u);
}

TEST(GuaranteesTest, KmSubsetRestriction) {
  std::vector<std::vector<int32_t>> records{{1}, {1}, {2}};
  std::vector<size_t> subset{0, 1};
  EXPECT_TRUE(FindKmViolations(records, 2, 1, &subset).empty());
  std::vector<size_t> bad_subset{1, 2};
  EXPECT_FALSE(FindKmViolations(records, 2, 1, &bad_subset).empty());
}

TEST(GuaranteesTest, KKmAnonymity) {
  RelationalRecoding recoding(4, 1);
  for (size_t r = 0; r < 4; ++r) recoding.set(r, 0, r < 2 ? 1 : 2);
  std::vector<std::vector<int32_t>> txn{{7}, {7}, {8}, {8}};
  EXPECT_TRUE(IsKKmAnonymous(recoding, txn, 2, 1));
  std::vector<std::vector<int32_t>> bad{{7}, {9}, {8}, {8}};
  EXPECT_FALSE(IsKKmAnonymous(recoding, bad, 2, 1));
}

TEST(RecodingTest, ApplyFullDomainLevels) {
  Dataset ds = testing::SmallRtDataset(40);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  std::vector<int> levels(ctx.num_qi(), 1);
  RelationalRecoding recoding = ApplyFullDomainLevels(ctx, levels);
  for (size_t r = 0; r < ds.num_records(); ++r) {
    for (size_t qi = 0; qi < ctx.num_qi(); ++qi) {
      const Hierarchy& h = ctx.hierarchy(qi);
      EXPECT_TRUE(h.IsAncestorOrSelf(recoding.at(r, qi), ctx.Leaf(r, qi)));
    }
  }
}

TEST(RecodingTest, ApplyCutValidatesCoverage) {
  Dataset ds = testing::SmallRtDataset(40);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  // Cut of all roots covers everything.
  std::vector<std::vector<NodeId>> cut(ctx.num_qi());
  for (size_t qi = 0; qi < ctx.num_qi(); ++qi) {
    cut[qi] = {ctx.hierarchy(qi).root()};
  }
  ASSERT_OK(ApplyCut(ctx, cut).status());
  // Missing coverage fails.
  cut[0] = {ctx.hierarchy(0).children(ctx.hierarchy(0).root())[0]};
  EXPECT_FALSE(ApplyCut(ctx, cut).ok());
  // Overlapping cut fails.
  cut[0] = {ctx.hierarchy(0).root(),
            ctx.hierarchy(0).children(ctx.hierarchy(0).root())[0]};
  EXPECT_FALSE(ApplyCut(ctx, cut).ok());
}

TEST(RecodingTest, BuildAnonymizedDatasetLabels) {
  Dataset ds = testing::SmallRtDataset(40);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  std::vector<int> levels(ctx.num_qi(), 100);
  RelationalRecoding all_root = ApplyFullDomainLevels(ctx, levels);
  ASSERT_OK_AND_ASSIGN(Dataset anon,
                       BuildAnonymizedDataset(ds, &ctx, &all_root, nullptr));
  EXPECT_EQ(anon.num_records(), ds.num_records());
  ASSERT_OK_AND_ASSIGN(size_t age_col, anon.ColumnByName("Age"));
  // Fully generalized numeric QID becomes categorical with the root label.
  EXPECT_FALSE(anon.is_numeric(age_col));
  EXPECT_EQ(anon.value_string(0, age_col).raw(), "*");
}

TEST(ResultsTest, IdentityTransactionRecoding) {
  std::vector<std::vector<ItemId>> txns{{0, 2}, {1}};
  Dictionary dict;
  dict.GetOrAdd("a");
  dict.GetOrAdd("b");
  dict.GetOrAdd("c");
  TransactionRecoding identity = IdentityTransactionRecoding(txns, 3, dict);
  EXPECT_EQ(identity.gens.size(), 3u);
  EXPECT_EQ(identity.records[0].size(), 2u);
  EXPECT_EQ(identity.gens[identity.records[1][0]].label, "b");
  EXPECT_EQ(identity.item_map.size(), 3u);
}

}  // namespace
}  // namespace secreta
