// Tests for the engine layer: registry, anonymization module, evaluator,
// experiment sweeps, comparator threading.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "engine/comparator.h"
#include "engine/evaluator.h"
#include "engine/experiment.h"
#include "engine/registry.h"
#include "hierarchy/hierarchy_builder.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = testing::SmallRtDataset(180, 71);
    hierarchies_ = std::move(BuildAllColumnHierarchies(dataset_)).ValueOrDie();
    item_hierarchy_ = std::move(BuildItemHierarchy(dataset_)).ValueOrDie();
    rel_context_.emplace(std::move(
        RelationalContext::Create(dataset_, hierarchies_)).ValueOrDie());
    txn_context_.emplace(std::move(
        TransactionContext::Create(dataset_, &item_hierarchy_)).ValueOrDie());
    inputs_.dataset = &dataset_;
    inputs_.relational = &*rel_context_;
    inputs_.transaction = &*txn_context_;
  }

  Dataset dataset_;
  std::vector<Hierarchy> hierarchies_;
  Hierarchy item_hierarchy_;
  std::optional<RelationalContext> rel_context_;
  std::optional<TransactionContext> txn_context_;
  EngineInputs inputs_;
};

TEST(RegistryTest, ListsPaperAlgorithms) {
  EXPECT_EQ(RelationalAlgorithmNames().size(), 4u);
  EXPECT_EQ(TransactionAlgorithmNames().size(), 5u);
  EXPECT_EQ(MergerNames().size(), 3u);
  for (const auto& name : RelationalAlgorithmNames()) {
    ASSERT_OK_AND_ASSIGN(auto algo, MakeRelationalAnonymizer(name));
    EXPECT_EQ(algo->name(), name);
  }
  for (const auto& name : TransactionAlgorithmNames()) {
    ASSERT_OK_AND_ASSIGN(auto algo, MakeTransactionAnonymizer(name));
    EXPECT_EQ(algo->name(), name);
  }
  EXPECT_FALSE(MakeRelationalAnonymizer("Nope").ok());
  EXPECT_FALSE(MakeTransactionAnonymizer("Nope").ok());
  EXPECT_FALSE(ParseMergerKind("Nope").ok());
  EXPECT_EQ(ParseMergerKind("Tmerger").value(), MergerKind::kTmerger);
}

TEST(RegistryTest, RhoUncertaintyConstructibleAsExtension) {
  ASSERT_OK_AND_ASSIGN(auto algo, MakeTransactionAnonymizer("RhoUncertainty"));
  EXPECT_EQ(algo->name(), "RhoUncertainty");
}

TEST_F(EngineTest, RunRequiresMatchingContexts) {
  AlgorithmConfig config;
  config.mode = AnonMode::kRelational;
  EngineInputs no_rel;
  no_rel.dataset = &dataset_;
  EXPECT_FALSE(RunAnonymization(no_rel, config).ok());
  config.mode = AnonMode::kTransaction;
  EXPECT_FALSE(RunAnonymization(no_rel, config).ok());
  EXPECT_FALSE(RunAnonymization(EngineInputs{}, config).ok());
}

TEST_F(EngineTest, ConfigLabelMentionsEverything) {
  AlgorithmConfig config;
  config.mode = AnonMode::kRt;
  config.relational_algorithm = "Incognito";
  config.transaction_algorithm = "LRA";
  config.merger = MergerKind::kRmerger;
  config.params.k = 9;
  std::string label = config.Label();
  EXPECT_NE(label.find("Incognito"), std::string::npos);
  EXPECT_NE(label.find("LRA"), std::string::npos);
  EXPECT_NE(label.find("Rmerger"), std::string::npos);
  EXPECT_NE(label.find("k=9"), std::string::npos);
}

TEST_F(EngineTest, EvaluatorReportsMetricsByName) {
  AlgorithmConfig config;
  config.mode = AnonMode::kRt;
  config.relational_algorithm = "Cluster";
  config.transaction_algorithm = "Apriori";
  config.params.k = 4;
  ASSERT_OK_AND_ASSIGN(EvaluationReport report,
                       EvaluateMethod(inputs_, config, nullptr));
  for (const char* metric : {"gcp", "ul", "are", "discernibility", "cavg",
                             "item_freq_error", "runtime"}) {
    EXPECT_OK(report.Metric(metric).status());
  }
  EXPECT_FALSE(report.Metric("bogus").ok());
  EXPECT_TRUE(report.guarantee_checked);
  EXPECT_TRUE(report.guarantee_ok);
  EXPECT_EQ(report.guarantee_name, "(k,km)-anonymity");
}

TEST_F(EngineTest, SweepValuesAndValidation) {
  ParamSweep sweep{"k", 2, 10, 2};
  ASSERT_OK_AND_ASSIGN(auto values, sweep.Values());
  EXPECT_EQ(values.size(), 5u);
  ParamSweep bad{"k", 10, 2, 2};
  EXPECT_FALSE(bad.Values().ok());
  ParamSweep zero_step{"k", 2, 10, 0};
  EXPECT_FALSE(zero_step.Values().ok());
  // A non-finite bound or step is refused up front, naming the field: a NaN
  // fails every comparison, so the value loop would end before its first
  // point, and an infinite one would run the loop up to the size cap.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<std::string, double ParamSweep::*> fields[] = {
      {"start", &ParamSweep::start},
      {"end", &ParamSweep::end},
      {"step", &ParamSweep::step}};
  for (const auto& [name, field] : fields) {
    for (double bad_value : {nan, inf, -inf}) {
      ParamSweep non_finite{"k", 2, 10, 2};
      non_finite.*field = bad_value;
      Result<std::vector<double>> values = non_finite.Values();
      ASSERT_FALSE(values.ok()) << name << "=" << bad_value;
      EXPECT_EQ(values.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(values.status().message().find("sweep " + name +
                                               " must be finite"),
                std::string::npos)
          << values.status().ToString();
    }
  }
}

TEST_F(EngineTest, SweepOverridesParameter) {
  AlgorithmConfig config;
  config.mode = AnonMode::kRelational;
  config.relational_algorithm = "Cluster";
  ParamSweep sweep{"k", 3, 9, 3};
  ASSERT_OK_AND_ASSIGN(SweepResult result,
                       RunSweep(inputs_, config, sweep, nullptr));
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_EQ(result.points[0].report.run.config.params.k, 3);
  EXPECT_EQ(result.points[2].report.run.config.params.k, 9);
  ASSERT_OK_AND_ASSIGN(Series s, result.Extract("runtime"));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(result.Extract("bogus").ok());
}

TEST_F(EngineTest, SweepRejectsUnknownParameter) {
  AlgorithmConfig config;
  config.mode = AnonMode::kRelational;
  ParamSweep sweep{"unknown", 1, 2, 1};
  EXPECT_FALSE(RunSweep(inputs_, config, sweep, nullptr).ok());
}

TEST_F(EngineTest, ComparatorMatchesSequentialResults) {
  std::vector<AlgorithmConfig> configs(3);
  configs[0].mode = AnonMode::kTransaction;
  configs[0].transaction_algorithm = "Apriori";
  configs[1].mode = AnonMode::kTransaction;
  configs[1].transaction_algorithm = "COAT";
  configs[2].mode = AnonMode::kTransaction;
  configs[2].transaction_algorithm = "PCTA";
  ParamSweep sweep{"k", 2, 6, 2};
  CompareOptions options;
  options.num_threads = 3;
  ASSERT_OK_AND_ASSIGN(auto parallel,
                       CompareMethods(inputs_, configs, sweep, nullptr, options));
  ASSERT_EQ(parallel.size(), 3u);
  for (size_t i = 0; i < configs.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(SweepResult sequential,
                         RunSweep(inputs_, configs[i], sweep, nullptr));
    ASSERT_EQ(parallel[i].points.size(), sequential.points.size());
    for (size_t p = 0; p < sequential.points.size(); ++p) {
      // Deterministic algorithms: identical UL regardless of threading.
      EXPECT_DOUBLE_EQ(parallel[i].points[p].report.ul,
                       sequential.points[p].report.ul)
          << configs[i].transaction_algorithm << " point " << p;
    }
  }
}

TEST_F(EngineTest, ComparatorPropagatesFailure) {
  std::vector<AlgorithmConfig> configs(2);
  configs[0].mode = AnonMode::kTransaction;
  configs[0].transaction_algorithm = "Apriori";
  configs[1].mode = AnonMode::kTransaction;
  configs[1].transaction_algorithm = "DoesNotExist";
  ParamSweep sweep{"k", 2, 4, 2};
  EXPECT_FALSE(CompareMethods(inputs_, configs, sweep, nullptr).ok());
}

TEST_F(EngineTest, MaterializeProducesLoadableDataset) {
  AlgorithmConfig config;
  config.mode = AnonMode::kTransaction;
  config.transaction_algorithm = "Apriori";
  config.params.k = 3;
  ASSERT_OK_AND_ASSIGN(RunResult run, RunAnonymization(inputs_, config));
  ASSERT_OK_AND_ASSIGN(Dataset anon, MaterializeRun(inputs_, run));
  // Round-trips through CSV.
  ASSERT_OK_AND_ASSIGN(Dataset back, Dataset::FromCsvInferred(anon.ToCsv()));
  EXPECT_EQ(back.num_records(), dataset_.num_records());
}

}  // namespace
}  // namespace secreta
