// Property tests for the four relational algorithms: for every algorithm and
// every k in a sweep, the output must be k-anonymous, generalize each value
// to an ancestor-or-self, and behave monotonically where theory demands it.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "algo/relational/cluster.h"
#include "algo/relational/incognito.h"
#include "core/guarantees.h"
#include "core/recoding.h"
#include "engine/registry.h"
#include "hierarchy/hierarchy_builder.h"
#include "metrics/information_loss.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

struct RelationalCase {
  std::string algorithm;
  int k;
};

void PrintTo(const RelationalCase& c, std::ostream* os) {
  *os << c.algorithm << "_k" << c.k;
}

class RelationalAlgoTest : public ::testing::TestWithParam<RelationalCase> {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(testing::SmallRtDataset(250, 17));
    hierarchies_ = new std::vector<Hierarchy>(
        std::move(BuildAllColumnHierarchies(*dataset_)).ValueOrDie());
    context_ = new RelationalContext(std::move(
        RelationalContext::Create(*dataset_, *hierarchies_)).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete context_;
    delete hierarchies_;
    delete dataset_;
    context_ = nullptr;
    hierarchies_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static std::vector<Hierarchy>* hierarchies_;
  static RelationalContext* context_;
};

Dataset* RelationalAlgoTest::dataset_ = nullptr;
std::vector<Hierarchy>* RelationalAlgoTest::hierarchies_ = nullptr;
RelationalContext* RelationalAlgoTest::context_ = nullptr;

TEST_P(RelationalAlgoTest, OutputIsKAnonymous) {
  const RelationalCase& c = GetParam();
  ASSERT_OK_AND_ASSIGN(auto algo, MakeRelationalAnonymizer(c.algorithm));
  AnonParams params;
  params.k = c.k;
  ASSERT_OK_AND_ASSIGN(RelationalRecoding recoding,
                       algo->Anonymize(*context_, params));
  EXPECT_TRUE(IsKAnonymous(recoding, c.k));
}

TEST_P(RelationalAlgoTest, RecodingGeneralizesEachValue) {
  const RelationalCase& c = GetParam();
  ASSERT_OK_AND_ASSIGN(auto algo, MakeRelationalAnonymizer(c.algorithm));
  AnonParams params;
  params.k = c.k;
  ASSERT_OK_AND_ASSIGN(RelationalRecoding recoding,
                       algo->Anonymize(*context_, params));
  ASSERT_EQ(recoding.num_records(), context_->num_records());
  for (size_t r = 0; r < recoding.num_records(); ++r) {
    for (size_t qi = 0; qi < context_->num_qi(); ++qi) {
      EXPECT_TRUE(context_->hierarchy(qi).IsAncestorOrSelf(
          recoding.at(r, qi), context_->Leaf(r, qi)))
          << "record " << r << " qi " << qi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndKs, RelationalAlgoTest,
    ::testing::ValuesIn([] {
      std::vector<RelationalCase> cases;
      for (const std::string& algo : RelationalAlgorithmNames()) {
        for (int k : {2, 5, 10, 25}) cases.push_back({algo, k});
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<RelationalCase>& info) {
      return info.param.algorithm + "_k" + std::to_string(info.param.k);
    });

TEST(RelationalAlgoEdgeTest, KLargerThanDatasetFails) {
  Dataset ds = testing::SmallRtDataset(10);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  AnonParams params;
  params.k = 100;
  for (const std::string& name : RelationalAlgorithmNames()) {
    ASSERT_OK_AND_ASSIGN(auto algo, MakeRelationalAnonymizer(name));
    EXPECT_FALSE(algo->Anonymize(ctx, params).ok()) << name;
  }
}

TEST(RelationalAlgoEdgeTest, KEqualsNGeneralizesToOneClass) {
  Dataset ds = testing::SmallRtDataset(30);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  AnonParams params;
  params.k = 30;
  for (const std::string& name : RelationalAlgorithmNames()) {
    ASSERT_OK_AND_ASSIGN(auto algo, MakeRelationalAnonymizer(name));
    ASSERT_OK_AND_ASSIGN(RelationalRecoding recoding,
                         algo->Anonymize(ctx, params));
    EXPECT_TRUE(IsKAnonymous(recoding, 30)) << name;
  }
}

TEST(RelationalAlgoEdgeTest, GcpGrowsWithK) {
  Dataset ds = testing::SmallRtDataset(200, 3);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  for (const std::string& name : RelationalAlgorithmNames()) {
    ASSERT_OK_AND_ASSIGN(auto algo, MakeRelationalAnonymizer(name));
    AnonParams params;
    params.k = 2;
    ASSERT_OK_AND_ASSIGN(auto low, algo->Anonymize(ctx, params));
    params.k = 40;
    ASSERT_OK_AND_ASSIGN(auto high, algo->Anonymize(ctx, params));
    // Greedy algorithms are not perfectly monotone; allow small slack.
    EXPECT_LE(RecodingGcp(ctx, low), RecodingGcp(ctx, high) + 0.10) << name;
  }
}

TEST(IncognitoSpecificTest, FrontierIsMinimalAndAnonymous) {
  Dataset ds = testing::SmallRtDataset(150, 7);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  IncognitoAnonymizer incognito;
  AnonParams params;
  params.k = 5;
  ASSERT_OK_AND_ASSIGN(auto frontier,
                       incognito.MinimalAnonymousLevels(ctx, params));
  ASSERT_FALSE(frontier.empty());
  for (const auto& levels : frontier) {
    // Anonymous...
    RelationalRecoding recoding = ApplyFullDomainLevels(ctx, levels);
    EXPECT_TRUE(IsKAnonymous(recoding, params.k));
    // ...and minimal: lowering any single coordinate breaks anonymity.
    for (size_t qi = 0; qi < levels.size(); ++qi) {
      if (levels[qi] == 0) continue;
      std::vector<int> lower = levels;
      --lower[qi];
      RelationalRecoding weaker = ApplyFullDomainLevels(ctx, lower);
      EXPECT_FALSE(IsKAnonymous(weaker, params.k))
          << "coordinate " << qi << " not minimal";
    }
  }
  // No frontier element dominates another.
  for (size_t i = 0; i < frontier.size(); ++i) {
    for (size_t j = 0; j < frontier.size(); ++j) {
      if (i == j) continue;
      bool leq = true;
      for (size_t qi = 0; qi < frontier[i].size(); ++qi) {
        if (frontier[i][qi] > frontier[j][qi]) leq = false;
      }
      EXPECT_FALSE(leq) << "frontier element " << i << " dominates " << j;
    }
  }
}

// Incognito returns the minimal anonymous vector whose recoding has the
// lowest RecodingGcp, the first one on ties. Scores every vector by building
// its recoding and checks Anonymize's recoding against the argmin, cell for
// cell. `ties` receives how many other vectors share the lowest GCP.
void ExpectPickMatchesLowestRecodingGcp(const RelationalContext& ctx, int k,
                                        size_t* ties) {
  IncognitoAnonymizer incognito;
  AnonParams params;
  params.k = k;
  ASSERT_OK_AND_ASSIGN(auto frontier,
                       incognito.MinimalAnonymousLevels(ctx, params));
  ASSERT_FALSE(frontier.empty());
  std::vector<double> gcps;
  size_t best = 0;
  for (size_t i = 0; i < frontier.size(); ++i) {
    gcps.push_back(RecodingGcp(ctx, ApplyFullDomainLevels(ctx, frontier[i])));
    if (gcps[i] < gcps[best]) best = i;
  }
  *ties = static_cast<size_t>(
              std::count(gcps.begin(), gcps.end(), gcps[best])) - 1;
  ASSERT_OK_AND_ASSIGN(RelationalRecoding picked,
                       incognito.Anonymize(ctx, params));
  RelationalRecoding expected = ApplyFullDomainLevels(ctx, frontier[best]);
  ASSERT_EQ(picked.num_records(), expected.num_records());
  ASSERT_EQ(picked.num_qi(), expected.num_qi());
  for (size_t r = 0; r < expected.num_records(); ++r) {
    for (size_t q = 0; q < expected.num_qi(); ++q) {
      ASSERT_EQ(picked.at(r, q), expected.at(r, q))
          << "row " << r << " qi " << q;
    }
  }
}

TEST(IncognitoTest, PickMatchesLowestRecodingGcp) {
  for (const auto& [n, seed] : {std::pair<size_t, uint64_t>{150, 7},
                                {240, 31},
                                {400, 101}}) {
    Dataset ds = testing::SmallRtDataset(n, seed);
    ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
    ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                         RelationalContext::Create(ds, hierarchies));
    for (int k : {2, 5, 10, 25}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k);
      size_t ties = 0;
      ExpectPickMatchesLowestRecodingGcp(ctx, k, &ties);
    }
  }

  // A tie: the data is symmetric in A and B, so generalizing either one
  // (levels [1,0] or [0,1]) costs the same GCP. The first vector wins.
  Schema schema;
  ASSERT_OK(schema.AddAttribute({"A", AttributeType::kCategorical,
                                 AttributeRole::kQuasiIdentifier}));
  ASSERT_OK(schema.AddAttribute({"B", AttributeType::kCategorical,
                                 AttributeRole::kQuasiIdentifier}));
  ASSERT_OK_AND_ASSIGN(
      Dataset ds,
      Dataset::FromCsv({{"A", "B"},
                        {"a", "a"}, {"b", "a"}, {"a", "b"}, {"b", "b"},
                        {"c", "c"}, {"d", "c"}, {"c", "d"}, {"d", "d"}},
                       schema));
  std::vector<Hierarchy> hierarchies;
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(Hierarchy h, Hierarchy::FromPaths({{"a", "ab", "*"},
                                                           {"b", "ab", "*"},
                                                           {"c", "cd", "*"},
                                                           {"d", "cd", "*"}}));
    hierarchies.push_back(std::move(h));
  }
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  IncognitoAnonymizer incognito;
  AnonParams params;
  params.k = 2;
  ASSERT_OK_AND_ASSIGN(auto frontier,
                       incognito.MinimalAnonymousLevels(ctx, params));
  ASSERT_EQ(frontier, (std::vector<std::vector<int>>{{1, 0}, {0, 1}}));
  size_t ties = 0;
  ExpectPickMatchesLowestRecodingGcp(ctx, params.k, &ties);
  EXPECT_EQ(ties, 1u);
  ASSERT_OK_AND_ASSIGN(RelationalRecoding picked,
                       incognito.Anonymize(ctx, params));
  EXPECT_NE(picked.at(0, 0), ctx.Leaf(0, 0));  // A generalized
  EXPECT_EQ(picked.at(0, 1), ctx.Leaf(0, 1));  // B kept
}

TEST(ClusterSpecificTest, DeterministicWithSeed) {
  Dataset ds = testing::SmallRtDataset(120, 9);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  ClusterAnonymizer cluster;
  AnonParams params;
  params.k = 5;
  params.seed = 77;
  ASSERT_OK_AND_ASSIGN(auto r1, cluster.Anonymize(ctx, params));
  ASSERT_OK_AND_ASSIGN(auto r2, cluster.Anonymize(ctx, params));
  for (size_t r = 0; r < r1.num_records(); ++r) {
    for (size_t qi = 0; qi < r1.num_qi(); ++qi) {
      ASSERT_EQ(r1.at(r, qi), r2.at(r, qi));
    }
  }
}

TEST(ClusterSpecificTest, ClustersBoundedBelowByK) {
  Dataset ds = testing::SmallRtDataset(120, 11);
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  ClusterAnonymizer cluster;
  AnonParams params;
  params.k = 7;
  ASSERT_OK_AND_ASSIGN(auto recoding, cluster.Anonymize(ctx, params));
  EquivalenceClasses classes = GroupByRecoding(recoding);
  EXPECT_GE(classes.MinGroupSize(), 7u);
  // Cluster aims for many small classes; on 120 records with k=7 it should
  // produce clearly more than one class.
  EXPECT_GT(classes.num_groups(), 3u);
}

}  // namespace
}  // namespace secreta
