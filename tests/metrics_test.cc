// Unit tests for information-loss measures and frequency metrics.

#include "metrics/information_loss.h"

#include <gtest/gtest.h>

#include "core/recoding.h"
#include "hierarchy/hierarchy_builder.h"
#include "metrics/frequency.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

Hierarchy FourLeafHierarchy() {
  return std::move(Hierarchy::FromPaths({
                       {"a", "g1", "*"},
                       {"b", "g1", "*"},
                       {"c", "g2", "*"},
                       {"d", "g2", "*"},
                   }))
      .ValueOrDie();
}

TEST(NcpTest, LeafZeroRootOne) {
  Hierarchy h = FourLeafHierarchy();
  EXPECT_DOUBLE_EQ(NodeNcp(h, h.LeafOf("a").value()), 0.0);
  EXPECT_DOUBLE_EQ(NodeNcp(h, h.root()), 1.0);
  EXPECT_DOUBLE_EQ(NodeNcp(h, h.NodeOf("g1").value()), 1.0 / 3.0);
}

TEST(NcpTest, NumericUsesRanges) {
  auto h = std::move(Hierarchy::FromPaths({
                         {"0", "lo", "*"},
                         {"10", "lo", "*"},
                         {"90", "hi", "*"},
                         {"100", "hi", "*"},
                     }))
               .ValueOrDie();
  ASSERT_TRUE(h.has_numeric_ranges());
  EXPECT_DOUBLE_EQ(NodeNcp(h, h.NodeOf("lo").value()), 0.1);
  EXPECT_DOUBLE_EQ(NodeNcp(h, h.NodeOf("hi").value()), 0.1);
  EXPECT_DOUBLE_EQ(NodeNcp(h, h.root()), 1.0);
}

TEST(NcpTest, LcaNcp) {
  Hierarchy h = FourLeafHierarchy();
  std::vector<NodeId> ab{h.LeafOf("a").value(), h.LeafOf("b").value()};
  EXPECT_DOUBLE_EQ(LcaNcp(h, ab), 1.0 / 3.0);
  std::vector<NodeId> ac{h.LeafOf("a").value(), h.LeafOf("c").value()};
  EXPECT_DOUBLE_EQ(LcaNcp(h, ac), 1.0);
  EXPECT_DOUBLE_EQ(LcaNcp(h, {h.LeafOf("a").value()}), 0.0);
}

TEST(GcpTest, IdentityZeroFullOne) {
  Dataset ds = testing::SmallRtDataset(60);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  EXPECT_DOUBLE_EQ(RecodingGcp(ctx, IdentityRecoding(ctx)), 0.0);
  std::vector<int> levels(ctx.num_qi(), 100);
  EXPECT_DOUBLE_EQ(RecodingGcp(ctx, ApplyFullDomainLevels(ctx, levels)), 1.0);
}

TEST(GcpTest, PerAttributeBreakdownAveragesToGcp) {
  Dataset ds = testing::SmallRtDataset(80, 19);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  // Generalize only attribute 0 (one level); others stay exact.
  std::vector<int> levels(ctx.num_qi(), 0);
  levels[0] = 1;
  RelationalRecoding recoding = ApplyFullDomainLevels(ctx, levels);
  std::vector<double> per_attr = RecodingGcpPerAttribute(ctx, recoding);
  ASSERT_EQ(per_attr.size(), ctx.num_qi());
  EXPECT_GT(per_attr[0], 0.0);
  for (size_t j = 1; j < per_attr.size(); ++j) {
    EXPECT_DOUBLE_EQ(per_attr[j], 0.0);
  }
  double mean = 0;
  for (double v : per_attr) mean += v;
  mean /= static_cast<double>(per_attr.size());
  EXPECT_NEAR(RecodingGcp(ctx, recoding), mean, 1e-12);
}

TEST(UlTest, IdentityZero) {
  std::vector<std::vector<ItemId>> txns{{0, 1}, {1, 2}};
  Dictionary dict;
  dict.GetOrAdd("a");
  dict.GetOrAdd("b");
  dict.GetOrAdd("c");
  TransactionRecoding identity = IdentityTransactionRecoding(txns, 3, dict);
  EXPECT_DOUBLE_EQ(TransactionUl(identity, txns, 3), 0.0);
}

TEST(UlTest, SuppressionCostsOne) {
  std::vector<std::vector<ItemId>> txns{{0}, {0}};
  TransactionRecoding recoding;
  recoding.records = {{}, {}};  // everything suppressed
  recoding.item_map = {kSuppressedGen};
  EXPECT_DOUBLE_EQ(TransactionUl(recoding, txns, 1), 1.0);
}

TEST(UlTest, PartialGeneralization) {
  // 3 items; item 0 generalized with item 1 ({0,1}), item 2 untouched.
  std::vector<std::vector<ItemId>> txns{{0, 2}};
  TransactionRecoding recoding;
  int32_t g01 = recoding.AddGen("{0,1}", {0, 1});
  int32_t g2 = recoding.AddGen("2", {2});
  recoding.records = {{g01, g2}};
  // Occurrence of item 0 pays (2-1)/(3-1) = 0.5; item 2 pays 0; mean 0.25.
  EXPECT_DOUBLE_EQ(TransactionUl(recoding, txns, 3), 0.25);
  EXPECT_DOUBLE_EQ(RecordUl(recoding, 0, txns[0], 3), 0.25);
}

TEST(DiscernibilityTest, Behaviour) {
  EquivalenceClasses classes = testing::ClassesOf({{0, 1}, {2, 3, 4}});
  EXPECT_DOUBLE_EQ(Discernibility(classes), 4 + 9);
  EXPECT_DOUBLE_EQ(AverageClassSize(classes, 2), 5.0 / (2 * 2));
}

TEST(FrequencyTest, GeneralizedValueHistogram) {
  Dataset ds = testing::SmallRtDataset(60);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  std::vector<int> levels(ctx.num_qi(), 100);
  RelationalRecoding all_root = ApplyFullDomainLevels(ctx, levels);
  Histogram hist = GeneralizedValueHistogram(ctx, all_root, 0);
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0].count, ds.num_records());
}

TEST(FrequencyTest, ItemFrequencyErrorZeroOnIdentity) {
  Dataset ds = testing::SmallRtDataset(60);
  std::vector<std::vector<ItemId>> txns;
  for (size_t r = 0; r < ds.num_records(); ++r) txns.push_back(ds.items(r).raw());
  TransactionRecoding identity = IdentityTransactionRecoding(
      txns, ds.item_dictionary().size(), ds.item_dictionary());
  EXPECT_NEAR(
      MeanItemFrequencyError(identity, txns, ds.item_dictionary()), 0.0, 1e-12);
}

TEST(FrequencyTest, ItemFrequencyErrorPositiveAfterMerge) {
  // Two items with different supports merged: uniform split misestimates.
  std::vector<std::vector<ItemId>> txns{{0}, {0}, {0}, {1}};
  Dictionary dict;
  dict.GetOrAdd("x");
  dict.GetOrAdd("y");
  TransactionRecoding recoding;
  int32_t g = recoding.AddGen("{x,y}", {0, 1});
  recoding.item_map = {g, g};
  recoding.records = {{g}, {g}, {g}, {g}};
  auto errors = ItemFrequencyError(recoding, txns, dict);
  ASSERT_EQ(errors.size(), 2u);
  // x: orig 3, est 2 -> 1/3; y: orig 1, est 2 -> 1.
  EXPECT_NEAR(errors[0].second, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(errors[1].second, 1.0, 1e-12);
}

}  // namespace
}  // namespace secreta
