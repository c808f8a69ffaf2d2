// Determinism and equivalence tests for the parallelized anonymization
// algorithms: every algorithm must produce byte-identical recodings with and
// without a thread pool, and the optimized counting paths must match their
// preserved reference implementations.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "algo/relational/cluster.h"
#include "algo/relational/incognito.h"
#include "algo/relational/topdown.h"
#include "algo/transaction/apriori.h"
#include "algo/transaction/coat.h"
#include "algo/transaction/gen_space.h"
#include "algo/transaction/lra.h"
#include "algo/transaction/pcta.h"
#include "common/parallel.h"
#include "hierarchy/hierarchy_builder.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

// The context borrows the dataset and the hierarchy elements, so both live
// behind stable addresses (unique_ptr; vector moves keep element addresses).
struct RelationalFixture {
  std::unique_ptr<Dataset> dataset;
  std::vector<Hierarchy> hierarchies;
  std::optional<RelationalContext> context_holder;
  const RelationalContext& context() const { return *context_holder; }
};

RelationalFixture MakeRelational(size_t n = 600, uint64_t seed = 5) {
  RelationalFixture fx;
  fx.dataset = std::make_unique<Dataset>(testing::SmallRtDataset(n, seed));
  fx.hierarchies =
      std::move(BuildAllColumnHierarchies(*fx.dataset)).ValueOrDie();
  fx.context_holder.emplace(
      std::move(RelationalContext::Create(*fx.dataset, fx.hierarchies))
          .ValueOrDie());
  return fx;
}

bool SameRelational(const RelationalRecoding& a, const RelationalRecoding& b) {
  if (a.num_records() != b.num_records() || a.num_qi() != b.num_qi()) {
    return false;
  }
  for (size_t r = 0; r < a.num_records(); ++r) {
    for (size_t qi = 0; qi < a.num_qi(); ++qi) {
      if (a.at(r, qi) != b.at(r, qi)) return false;
    }
  }
  return true;
}

bool SameTransaction(const TransactionRecoding& a,
                     const TransactionRecoding& b) {
  if (a.records != b.records || a.item_map != b.item_map ||
      a.suppressed_occurrences != b.suppressed_occurrences ||
      a.gens.size() != b.gens.size()) {
    return false;
  }
  for (size_t g = 0; g < a.gens.size(); ++g) {
    if (a.gens[g].label != b.gens[g].label ||
        a.gens[g].covers != b.gens[g].covers) {
      return false;
    }
  }
  return true;
}

template <typename Algo>
void ExpectRelationalPoolInvariance(Algo& algo) {
  // The fixture must outlive both runs; recodings point into the context.
  RelationalFixture fx = MakeRelational();
  AnonParams params;
  params.k = 4;
  algo.set_pool(nullptr);
  RelationalRecoding serial =
      std::move(algo.Anonymize(fx.context(), params)).ValueOrDie();
  algo.set_pool(&SharedEvalPool());
  RelationalRecoding parallel =
      std::move(algo.Anonymize(fx.context(), params)).ValueOrDie();
  EXPECT_TRUE(SameRelational(serial, parallel));
}

TEST(AlgoParallelTest, IncognitoPoolInvariant) {
  IncognitoAnonymizer algo;
  ExpectRelationalPoolInvariance(algo);
}

TEST(AlgoParallelTest, ClusterPoolInvariant) {
  ClusterAnonymizer algo;
  ExpectRelationalPoolInvariance(algo);
}

TEST(AlgoParallelTest, TopDownPoolInvariant) {
  TopDownAnonymizer algo;
  ExpectRelationalPoolInvariance(algo);
}

TEST(AlgoParallelTest, IncognitoPackedCountingMatchesReference) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    RelationalFixture fx = MakeRelational(500, seed);
    for (int k : {2, 5, 10}) {
      AnonParams params;
      params.k = k;
      IncognitoAnonymizer algo;
      RelationalRecoding optimized =
          std::move(algo.Anonymize(fx.context(), params)).ValueOrDie();
      algo.set_use_reference_impl(true);
      RelationalRecoding reference =
          std::move(algo.Anonymize(fx.context(), params)).ValueOrDie();
      EXPECT_TRUE(SameRelational(optimized, reference))
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(AlgoParallelTest, IncognitoFrontierMatchesReference) {
  RelationalFixture fx = MakeRelational(400, 9);
  AnonParams params;
  params.k = 3;
  IncognitoAnonymizer algo;
  auto optimized = std::move(algo.MinimalAnonymousLevels(fx.context(), params))
                       .ValueOrDie();
  algo.set_use_reference_impl(true);
  auto reference = std::move(algo.MinimalAnonymousLevels(fx.context(), params))
                       .ValueOrDie();
  EXPECT_EQ(optimized, reference);
}

TEST(AlgoParallelTest, TransactionAlgosPoolInvariant) {
  Dataset dataset = testing::SmallRtDataset(800, 11);
  auto context =
      std::move(TransactionContext::Create(dataset, nullptr)).ValueOrDie();
  AnonParams params;
  params.k = 4;
  params.m = 2;
  CoatAnonymizer coat;
  PctaAnonymizer pcta;
  std::vector<TransactionAnonymizer*> algos = {&coat, &pcta};
  for (TransactionAnonymizer* algo : algos) {
    algo->set_pool(nullptr);
    TransactionRecoding serial =
        std::move(algo->Anonymize(context, params)).ValueOrDie();
    algo->set_pool(&SharedEvalPool());
    TransactionRecoding parallel =
        std::move(algo->Anonymize(context, params)).ValueOrDie();
    EXPECT_TRUE(SameTransaction(serial, parallel)) << algo->name();
  }
}

// The AA loop searches serially over its key row lists: a pool must still
// change nothing, on subsets of thousands of records.
TEST(AlgoParallelTest, AprioriPoolInvariantWithHierarchy) {
  Dataset dataset = testing::SmallRtDataset(2400, 12);
  auto hierarchy =
      std::move(BuildItemHierarchy(dataset, {})).ValueOrDie();
  auto context =
      std::move(TransactionContext::Create(dataset, &hierarchy)).ValueOrDie();
  AnonParams params;
  params.k = 4;
  params.m = 3;
  AprioriAnonymizer algo;
  algo.set_pool(nullptr);
  TransactionRecoding serial =
      std::move(algo.Anonymize(context, params)).ValueOrDie();
  algo.set_pool(&SharedEvalPool());
  TransactionRecoding parallel =
      std::move(algo.Anonymize(context, params)).ValueOrDie();
  EXPECT_TRUE(SameTransaction(serial, parallel));
}

TEST(AlgoParallelTest, LraPoolInvariantWithHierarchy) {
  Dataset dataset = testing::SmallRtDataset(4400, 13);
  auto hierarchy =
      std::move(BuildItemHierarchy(dataset, {})).ValueOrDie();
  auto context =
      std::move(TransactionContext::Create(dataset, &hierarchy)).ValueOrDie();
  AnonParams params;
  params.k = 4;
  params.m = 2;
  params.lra_partitions = 2;  // 2,200 records per partition
  LraAnonymizer algo;
  algo.set_pool(nullptr);
  TransactionRecoding serial =
      std::move(algo.Anonymize(context, params)).ValueOrDie();
  algo.set_pool(&SharedEvalPool());
  TransactionRecoding parallel =
      std::move(algo.Anonymize(context, params)).ValueOrDie();
  EXPECT_TRUE(SameTransaction(serial, parallel));
}

// GenSpace's posting-list ItemsetSupport vs the preserved full-scan
// reference, across merges and suppressions.
TEST(AlgoParallelTest, GenSpaceItemsetSupportMatchesReferenceScan) {
  std::mt19937_64 rng(23);
  Dictionary dict;
  for (int i = 0; i < 24; ++i) dict.GetOrAdd("item" + std::to_string(i));
  std::vector<std::vector<ItemId>> txns(500);
  for (auto& txn : txns) {
    size_t len = 1 + rng() % 5;
    for (size_t i = 0; i < len; ++i) {
      txn.push_back(static_cast<ItemId>(rng() % 24));
    }
    std::sort(txn.begin(), txn.end());
    txn.erase(std::unique(txn.begin(), txn.end()), txn.end());
  }
  GenSpace optimized(txns, dict);
  GenSpace reference(txns, dict);
  reference.set_use_reference_impl(true);
  auto check_all = [&](const char* stage) {
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<int32_t> gens;
      size_t len = 1 + rng() % 3;
      for (size_t i = 0; i < len; ++i) {
        const auto& live = optimized.LiveGens();
        gens.push_back(live[rng() % live.size()]);
      }
      std::sort(gens.begin(), gens.end());
      gens.erase(std::unique(gens.begin(), gens.end()), gens.end());
      EXPECT_EQ(optimized.ItemsetSupport(gens), reference.ItemsetSupport(gens))
          << stage;
    }
  };
  check_all("identity");
  // Apply identical merges/suppressions to both spaces, re-checking after.
  for (int step = 0; step < 8; ++step) {
    const auto& live = optimized.LiveGens();
    if (live.size() < 3) break;
    int32_t a = live[rng() % live.size()];
    int32_t b = a;
    while (b == a) b = live[rng() % live.size()];
    int32_t ga = optimized.Merge(a, b);
    int32_t gb = reference.Merge(a, b);
    ASSERT_EQ(ga, gb);
    // Posting lists stay sorted and deduplicated across merges.
    const auto& rows = optimized.GenRows(ga);
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
    EXPECT_TRUE(std::adjacent_find(rows.begin(), rows.end()) == rows.end());
  }
  check_all("after merges");
  if (!optimized.LiveGens().empty()) {
    int32_t victim = optimized.LiveGens()[0];
    optimized.Suppress(victim);
    reference.Suppress(victim);
    EXPECT_EQ(optimized.ItemsetSupport({victim}), 0u);
    EXPECT_EQ(reference.ItemsetSupport({victim}), 0u);
  }
  check_all("after suppression");
}

// COAT end-to-end equivalence of the two ItemsetSupport paths.
TEST(AlgoParallelTest, CoatMatchesReferenceItemsetSupport) {
  Dataset dataset = testing::SmallRtDataset(600, 31);
  auto context =
      std::move(TransactionContext::Create(dataset, nullptr)).ValueOrDie();
  AnonParams params;
  params.k = 5;
  params.m = 2;
  CoatAnonymizer optimized;
  TransactionRecoding fast =
      std::move(optimized.Anonymize(context, params)).ValueOrDie();
  CoatAnonymizer reference;
  reference.set_use_reference_impl(true);
  TransactionRecoding slow =
      std::move(reference.Anonymize(context, params)).ValueOrDie();
  EXPECT_TRUE(SameTransaction(fast, slow));
}

}  // namespace
}  // namespace secreta
