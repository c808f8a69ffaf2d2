// Tests for recipient-side auditing of anonymized datasets.

#include "core/audit.h"

#include <gtest/gtest.h>

#include "frontend/session.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

TEST(AuditTest, DetectsViolationsInRawData) {
  // Raw (un-anonymized) data is essentially never 5-anonymous.
  Dataset ds = testing::SmallRtDataset(100, 401);
  ASSERT_OK_AND_ASSIGN(AuditReport report,
                       AuditAnonymizedDataset(ds, 5, 2, true));
  EXPECT_FALSE(report.k_anonymous);
  EXPECT_NE(report.details, "ok");
}

TEST(AuditTest, PassesOnProperlyAnonymizedOutput) {
  SecretaSession session;
  ASSERT_OK(session.SetDataset(testing::SmallRtDataset(200, 403)));
  ASSERT_OK(session.AutoGenerateHierarchies());
  AlgorithmConfig config;
  config.mode = AnonMode::kRt;
  config.relational_algorithm = "Cluster";
  config.transaction_algorithm = "Apriori";
  config.params.k = 4;
  config.params.m = 2;
  ASSERT_OK_AND_ASSIGN(EvaluationReport evaluation, session.Evaluate(config));
  ASSERT_TRUE(evaluation.guarantee_ok);
  ASSERT_OK_AND_ASSIGN(Dataset anon, session.Materialize(evaluation));
  ASSERT_OK_AND_ASSIGN(AuditReport audit,
                       AuditAnonymizedDataset(anon, 4, 2, true));
  EXPECT_TRUE(audit.k_anonymous) << audit.details;
  EXPECT_TRUE(audit.km_anonymous) << audit.details;
  EXPECT_GE(audit.min_class_size, 4u);
  EXPECT_EQ(audit.details, "ok");
}

TEST(AuditTest, TransactionOnlyAudit) {
  SyntheticOptions gen;
  gen.num_records = 150;
  gen.seed = 405;
  ASSERT_OK_AND_ASSIGN(Dataset ds, GenerateTransactionDataset(gen));
  SecretaSession session;
  ASSERT_OK(session.SetDataset(std::move(ds)));
  ASSERT_OK(session.AutoGenerateHierarchies());
  AlgorithmConfig config;
  config.mode = AnonMode::kTransaction;
  config.transaction_algorithm = "Apriori";
  config.params.k = 5;
  config.params.m = 2;
  ASSERT_OK_AND_ASSIGN(EvaluationReport evaluation, session.Evaluate(config));
  ASSERT_OK_AND_ASSIGN(Dataset anon, session.Materialize(evaluation));
  ASSERT_OK_AND_ASSIGN(AuditReport audit,
                       AuditAnonymizedDataset(anon, 5, 2, false));
  EXPECT_TRUE(audit.k_anonymous);  // vacuous (no relational attributes)
  EXPECT_TRUE(audit.km_anonymous) << audit.details;
}

TEST(AuditTest, KmViolationReported) {
  csv::CsvTable t{{"Items"}, {"a b"}, {"a"}, {"b"}, {"a"}, {"b"}};
  ASSERT_OK_AND_ASSIGN(Dataset ds, Dataset::FromCsvInferred(t));
  // Pair {a,b} has support 1 < 2.
  ASSERT_OK_AND_ASSIGN(AuditReport audit,
                       AuditAnonymizedDataset(ds, 2, 2, false));
  EXPECT_FALSE(audit.km_anonymous);
  EXPECT_EQ(audit.worst_itemset_support, 1u);
  // m = 1 is fine (singleton supports are 3 and 3).
  ASSERT_OK_AND_ASSIGN(AuditReport audit1,
                       AuditAnonymizedDataset(ds, 2, 1, false));
  EXPECT_TRUE(audit1.km_anonymous);
}

// A check that is not made passes vacuously; the report says which were.
TEST(AuditTest, ReportsWhichChecksWereMade) {
  Dataset ds = testing::SmallRtDataset(100, 407);
  ASSERT_OK_AND_ASSIGN(AuditReport both,
                       AuditAnonymizedDataset(ds, 5, 2, true));
  EXPECT_TRUE(both.k_checked);
  EXPECT_TRUE(both.km_checked);
  ASSERT_OK_AND_ASSIGN(AuditReport k_only,
                       AuditAnonymizedDataset(ds, 5, 0, false));
  EXPECT_TRUE(k_only.k_checked);
  EXPECT_FALSE(k_only.km_checked);
  EXPECT_TRUE(k_only.km_anonymous);
  ASSERT_OK_AND_ASSIGN(AuditReport km_only,
                       AuditAnonymizedDataset(ds, 5, 2, false,
                                              /*check_k=*/false));
  EXPECT_FALSE(km_only.k_checked);
  EXPECT_TRUE(km_only.km_checked);
  EXPECT_TRUE(km_only.k_anonymous);
  EXPECT_EQ(km_only.min_class_size, 0u);
}

TEST(AuditTest, BadParametersRejected) {
  Dataset ds = testing::SmallRtDataset(20);
  EXPECT_FALSE(AuditAnonymizedDataset(ds, 0, 1, false).ok());
  EXPECT_FALSE(AuditAnonymizedDataset(ds, 2, -1, false).ok());
}

}  // namespace
}  // namespace secreta
