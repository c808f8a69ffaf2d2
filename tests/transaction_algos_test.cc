// Property tests for the five transaction algorithms: k^m-anonymity of the
// output for every (algorithm, k, m), structural recoding invariants, and
// subset-mode behaviour (the form used inside RT pipelines).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "algo/transaction/coat.h"
#include "algo/transaction/gen_space.h"
#include "algo/transaction/vpa.h"
#include "common/cancellation.h"
#include "common/random.h"
#include "core/guarantees.h"
#include "policy/policy_generator.h"
#include "engine/registry.h"
#include "hierarchy/hierarchy_builder.h"
#include "metrics/information_loss.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

struct TransactionCase {
  std::string algorithm;
  int k;
  int m;
};

class TransactionAlgoTest : public ::testing::TestWithParam<TransactionCase> {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(testing::SmallRtDataset(220, 23));
    hierarchy_ = new Hierarchy(
        std::move(BuildItemHierarchy(*dataset_)).ValueOrDie());
    context_ = new TransactionContext(std::move(
        TransactionContext::Create(*dataset_, hierarchy_)).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete context_;
    delete hierarchy_;
    delete dataset_;
    context_ = nullptr;
    hierarchy_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static Hierarchy* hierarchy_;
  static TransactionContext* context_;
};

Dataset* TransactionAlgoTest::dataset_ = nullptr;
Hierarchy* TransactionAlgoTest::hierarchy_ = nullptr;
TransactionContext* TransactionAlgoTest::context_ = nullptr;

TEST_P(TransactionAlgoTest, OutputIsKmAnonymous) {
  const TransactionCase& c = GetParam();
  ASSERT_OK_AND_ASSIGN(auto algo, MakeTransactionAnonymizer(c.algorithm));
  AnonParams params;
  params.k = c.k;
  params.m = c.m;
  ASSERT_OK_AND_ASSIGN(TransactionRecoding recoding,
                       algo->Anonymize(*context_, params));
  EXPECT_TRUE(IsKmAnonymous(recoding.records, c.k, c.m));
}

TEST_P(TransactionAlgoTest, RecodingIsStructurallySound) {
  const TransactionCase& c = GetParam();
  ASSERT_OK_AND_ASSIGN(auto algo, MakeTransactionAnonymizer(c.algorithm));
  AnonParams params;
  params.k = c.k;
  params.m = c.m;
  ASSERT_OK_AND_ASSIGN(TransactionRecoding recoding,
                       algo->Anonymize(*context_, params));
  ASSERT_EQ(recoding.records.size(), dataset_->num_records());
  size_t num_items = dataset_->item_dictionary().size();
  for (size_t r = 0; r < recoding.records.size(); ++r) {
    const auto& rec = recoding.records[r];
    // Sorted, deduped, valid gen indices.
    EXPECT_TRUE(std::is_sorted(rec.begin(), rec.end()));
    EXPECT_TRUE(std::adjacent_find(rec.begin(), rec.end()) == rec.end());
    for (int32_t g : rec) {
      ASSERT_GE(g, 0);
      ASSERT_LT(static_cast<size_t>(g), recoding.gens.size());
    }
    // Every gen present in a record must cover at least one item the record
    // actually has (truthfulness: no fabricated content).
    const auto& original = dataset_->items(r).raw();
    for (int32_t g : rec) {
      const auto& covers = recoding.gens[static_cast<size_t>(g)].covers;
      bool overlaps = false;
      for (ItemId item : original) {
        if (std::binary_search(covers.begin(), covers.end(), item)) {
          overlaps = true;
          break;
        }
      }
      EXPECT_TRUE(overlaps) << c.algorithm << " record " << r;
    }
    // Every original item is either covered by a present gen or suppressed.
    for (ItemId item : original) {
      bool covered = false;
      for (int32_t g : rec) {
        const auto& covers = recoding.gens[static_cast<size_t>(g)].covers;
        if (std::binary_search(covers.begin(), covers.end(), item)) {
          covered = true;
          break;
        }
      }
      // Covered or suppressed; there is no third state to assert, but the UL
      // computation must agree: spot-check via RecordUl being finite in [0,1].
      (void)covered;
    }
  }
  // Gen covers are sorted item ids in range.
  for (const auto& gen : recoding.gens) {
    EXPECT_TRUE(std::is_sorted(gen.covers.begin(), gen.covers.end()));
    for (ItemId item : gen.covers) {
      ASSERT_GE(item, 0);
      ASSERT_LT(static_cast<size_t>(item), num_items);
    }
  }
  // UL is a valid normalized loss.
  std::vector<std::vector<ItemId>> original;
  for (size_t r = 0; r < dataset_->num_records(); ++r) {
    original.push_back(dataset_->items(r).raw());
  }
  double ul = TransactionUl(recoding, original, num_items);
  EXPECT_GE(ul, 0.0);
  EXPECT_LE(ul, 1.0);
}

TEST_P(TransactionAlgoTest, SubsetModeSatisfiesKmWithinSubset) {
  const TransactionCase& c = GetParam();
  ASSERT_OK_AND_ASSIGN(auto algo, MakeTransactionAnonymizer(c.algorithm));
  AnonParams params;
  params.k = c.k;
  params.m = c.m;
  // A mid-size subset (every third record).
  std::vector<size_t> subset;
  for (size_t r = 0; r < dataset_->num_records(); r += 3) subset.push_back(r);
  ASSERT_OK_AND_ASSIGN(TransactionRecoding recoding,
                       algo->AnonymizeSubset(*context_, subset, params));
  ASSERT_EQ(recoding.records.size(), subset.size());
  EXPECT_TRUE(IsKmAnonymous(recoding.records, c.k, c.m));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndParams, TransactionAlgoTest,
    ::testing::ValuesIn([] {
      std::vector<TransactionCase> cases;
      for (const std::string& algo : TransactionAlgorithmNames()) {
        for (int k : {2, 5, 12}) {
          for (int m : {1, 2}) cases.push_back({algo, k, m});
        }
        cases.push_back({algo, 3, 3});  // deeper adversary knowledge
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<TransactionCase>& info) {
      return info.param.algorithm + "_k" + std::to_string(info.param.k) + "m" +
             std::to_string(info.param.m);
    });

TEST(TransactionAlgoEdgeTest, HierarchyRequiredByCutBasedAlgorithms) {
  Dataset ds = testing::SmallRtDataset(60);
  ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                       TransactionContext::Create(ds, nullptr));
  AnonParams params;
  for (const char* name : {"Apriori", "LRA", "VPA"}) {
    ASSERT_OK_AND_ASSIGN(auto algo, MakeTransactionAnonymizer(name));
    EXPECT_TRUE(algo->requires_hierarchy());
    EXPECT_FALSE(algo->Anonymize(ctx, params).ok()) << name;
  }
  for (const char* name : {"COAT", "PCTA"}) {
    ASSERT_OK_AND_ASSIGN(auto algo, MakeTransactionAnonymizer(name));
    EXPECT_FALSE(algo->requires_hierarchy());
    ASSERT_OK_AND_ASSIGN(TransactionRecoding recoding,
                         algo->Anonymize(ctx, params));
    EXPECT_TRUE(IsKmAnonymous(recoding.records, params.k, params.m)) << name;
  }
}

TEST(TransactionAlgoEdgeTest, ExtremeKSuppressesButStaysSound) {
  Dataset ds = testing::SmallRtDataset(40);
  ASSERT_OK_AND_ASSIGN(Hierarchy h, BuildItemHierarchy(ds));
  ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                       TransactionContext::Create(ds, &h));
  AnonParams params;
  params.k = 1000;  // unattainable: forces total generalization/suppression
  params.m = 1;
  for (const std::string& name : TransactionAlgorithmNames()) {
    ASSERT_OK_AND_ASSIGN(auto algo, MakeTransactionAnonymizer(name));
    ASSERT_OK_AND_ASSIGN(TransactionRecoding recoding,
                         algo->Anonymize(ctx, params));
    EXPECT_TRUE(IsKmAnonymous(recoding.records, params.k, params.m)) << name;
  }
}

TEST(CoatSpecificTest, HonoursExplicitPolicies) {
  Dataset ds = testing::SmallRtDataset(150, 31);
  ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                       TransactionContext::Create(ds, nullptr));
  // Privacy: protect the 10 most frequent items with k=8.
  PrivacyGenOptions pg;
  pg.strategy = PrivacyStrategy::kFrequentItems;
  pg.frequent_fraction = 0.34;
  ASSERT_OK_AND_ASSIGN(PrivacyPolicy privacy, GeneratePrivacyPolicy(ds, pg));
  for (auto& c : privacy.constraints) c.k = 8;
  UtilityGenOptions ug;
  ug.strategy = UtilityStrategy::kFrequencyBands;
  ug.band_size = 6;
  ASSERT_OK_AND_ASSIGN(UtilityPolicy utility, GenerateUtilityPolicy(ds, ug));
  for (const char* name : {"COAT", "PCTA"}) {
    ASSERT_OK_AND_ASSIGN(auto algo,
                         MakeTransactionAnonymizer(name, privacy, utility));
    AnonParams params;
    params.k = 8;
    ASSERT_OK_AND_ASSIGN(TransactionRecoding recoding,
                         algo->Anonymize(ctx, params));
    EXPECT_TRUE(SatisfiesPrivacyPolicy(privacy, recoding, params.k)) << name;
    EXPECT_TRUE(SatisfiesUtilityPolicy(utility, recoding)) << name;
  }
}

// k^m-mode COAT or PCTA with every search started at the first gen: the
// fix goes to the most fragile of the first `max_violations` violations.
TransactionRecoding RestartingKmLoop(const TransactionContext& ctx,
                                     const std::vector<size_t>& subset,
                                     const AnonParams& params,
                                     size_t max_violations,
                                     bool prefer_global_cheapest) {
  std::vector<std::vector<ItemId>> txns;
  for (size_t row : subset) txns.push_back(ctx.dataset().items(row).raw());
  GenSpace space(std::move(txns), ctx.dataset().item_dictionary());
  UtilityPolicy unrestricted = UtilityPolicy::Unrestricted(ctx.num_items());
  while (true) {
    auto violations = space.FindViolations(params.m, params.k, max_violations);
    if (violations.empty()) break;
    const KmViolation* fragile = &violations[0];
    for (const auto& v : violations) {
      if (v.support < fragile->support) fragile = &v;
    }
    EXPECT_OK(FixItemsetSupport(&space, fragile->itemset, params.k,
                                &unrestricted, prefer_global_cheapest));
  }
  return space.Export();
}

void ExpectSameRecoding(const TransactionRecoding& got,
                        const TransactionRecoding& want) {
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.item_map, want.item_map);
  EXPECT_EQ(got.suppressed_occurrences, want.suppressed_occurrences);
  ASSERT_EQ(got.gens.size(), want.gens.size());
  for (size_t g = 0; g < got.gens.size(); ++g) {
    EXPECT_EQ(got.gens[g].label, want.gens[g].label) << "gen " << g;
    EXPECT_EQ(got.gens[g].covers, want.gens[g].covers) << "gen " << g;
  }
}

// COAT and PCTA resume each violation search at the smallest first gen of
// the last search's violations (PCTA's 16, not just its most fragile), so
// they must leave the recoding of the loops that restart every search.
TEST(CoatSpecificTest, ResumedSearchesMatchRestartingLoops) {
  Rng rng(20111104);
  for (int trial = 0; trial < 24; ++trial) {
    size_t n = 30 + static_cast<size_t>(rng.UniformInt(0, 150));
    Dataset ds = testing::SmallRtDataset(n, 700 + static_cast<uint64_t>(trial));
    ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                         TransactionContext::Create(ds, nullptr));
    std::vector<size_t> subset;
    for (size_t row = 0; row < n; ++row) {
      if (rng.Bernoulli(0.7)) subset.push_back(row);
    }
    AnonParams params;
    params.k = static_cast<int>(rng.UniformInt(2, 6));
    params.m = static_cast<int>(rng.UniformInt(1, 3));
    SCOPED_TRACE("trial " + std::to_string(trial) + " k=" +
                 std::to_string(params.k) + " m=" + std::to_string(params.m));
    for (const char* name : {"COAT", "PCTA"}) {
      SCOPED_TRACE(name);
      const bool pcta = std::string(name) == "PCTA";
      ASSERT_OK_AND_ASSIGN(auto algo, MakeTransactionAnonymizer(name));
      ASSERT_OK_AND_ASSIGN(TransactionRecoding got,
                           algo->AnonymizeSubset(ctx, subset, params));
      ExpectSameRecoding(got, RestartingKmLoop(ctx, subset, params,
                                               pcta ? 16 : 1, pcta));
    }
  }
}

TEST(CoatSpecificTest, PoliciesRejectedByHierarchyAlgorithms) {
  PrivacyPolicy privacy;
  privacy.constraints.push_back({{0}, 2});
  EXPECT_FALSE(MakeTransactionAnonymizer("Apriori", privacy).ok());
}

TEST(LraSpecificTest, MorePartitionsNeverBreakGuarantee) {
  Dataset ds = testing::SmallRtDataset(180, 41);
  ASSERT_OK_AND_ASSIGN(Hierarchy h, BuildItemHierarchy(ds));
  ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                       TransactionContext::Create(ds, &h));
  ASSERT_OK_AND_ASSIGN(auto lra, MakeTransactionAnonymizer("LRA"));
  for (int parts : {1, 2, 4, 16}) {
    AnonParams params;
    params.k = 4;
    params.m = 2;
    params.lra_partitions = parts;
    ASSERT_OK_AND_ASSIGN(TransactionRecoding recoding,
                         lra->Anonymize(ctx, params));
    EXPECT_TRUE(IsKmAnonymous(recoding.records, params.k, params.m))
        << parts << " partitions";
  }
}

TEST(VpaSpecificTest, PartCountSweepKeepsGuarantee) {
  Dataset ds = testing::SmallRtDataset(180, 43);
  ASSERT_OK_AND_ASSIGN(Hierarchy h, BuildItemHierarchy(ds));
  ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                       TransactionContext::Create(ds, &h));
  ASSERT_OK_AND_ASSIGN(auto vpa, MakeTransactionAnonymizer("VPA"));
  for (int parts : {1, 2, 3, 8}) {
    AnonParams params;
    params.k = 4;
    params.m = 2;
    params.vpa_parts = parts;
    ASSERT_OK_AND_ASSIGN(TransactionRecoding recoding,
                         vpa->Anonymize(ctx, params));
    EXPECT_TRUE(IsKmAnonymous(recoding.records, params.k, params.m))
        << parts << " parts";
  }
}

// Phase 1 runs the shared AA loop, which polls the token once per raise: a
// cancelled run stops at the first raise checkpoint instead of finishing
// every part's raises and stopping only in the phase-2 repair.
TEST(VpaSpecificTest, CancelledTokenStopsPhaseOneRaises) {
  Dataset ds = testing::SmallRtDataset(180, 43);
  ASSERT_OK_AND_ASSIGN(Hierarchy h, BuildItemHierarchy(ds));
  ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                       TransactionContext::Create(ds, &h));
  VpaAnonymizer vpa;
  CancellationToken token;
  token.Cancel();
  vpa.set_cancellation(&token);
  AnonParams params;
  params.k = 4;
  params.m = 2;
  std::vector<size_t> subset(ds.num_records());
  std::iota(subset.begin(), subset.end(), 0);
  Result<TransactionRecoding> result = vpa.AnonymizeSubset(ctx, subset, params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_NE(result.status().message().find("apriori raise"), std::string::npos)
      << result.status().message();
  EXPECT_EQ(result.status().message().find("vpa repair"), std::string::npos)
      << result.status().message();
}

}  // namespace
}  // namespace secreta
