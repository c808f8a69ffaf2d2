// Golden test of Comparison mode (paper Fig. 4): the five RT configurations
// of the compare_grid benchmark, over k in {2, 4}, on a small fixed dataset
// and workload. Every cell's ARE, GCP and UL is pinned as a hex-float
// literal, so a change that alters any algorithm, merger or estimate by a
// single bit fails here, not only in a comparison between two builds.
// Determinism tests compare runs within one build; this one compares a
// build against the values every earlier build produced.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "frontend/session.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

struct GoldenCell {
  int k;
  double are;
  double gcp;
  double ul;
};

struct GoldenConfig {
  const char* relational;
  const char* transaction;
  MergerKind merger;
  GoldenCell cells[2];  // k = 2, then k = 4
};

const GoldenConfig kGolden[] = {
    {"Cluster", "Apriori", MergerKind::kRTmerger,
     {{2, 0x1.17d5a2673de3ap-2, 0x1.620033b6b987fp-1, 0x1.6817a5228a4dcp-3},
      {4, 0x1.174836e9ad191p-2, 0x1.f015112ad4886p-1, 0x1.7b2485b18b799p-3}}},
    {"Incognito", "COAT", MergerKind::kRmerger,
     {{2, 0x1.1f2202ded317cp-2, 0x1.663297c756021p-2, 0x1.4e131f6524daep-3},
      {4, 0x1.1af5c7df96fdap-2, 0x1.b5ab3f2e2e61cp-2, 0x1.97f021e93269ap-3}}},
    {"TopDown", "PCTA", MergerKind::kTmerger,
     {{2, 0x1.1a4d4c1ab4dafp-2, 0x1.88ec431454e34p-1, 0x1.ef842368e357bp-4},
      {4, 0x1.1deaffdbbf0c8p-2, 0x1.be8788f399f35p-1, 0x1.0c7f86565aaeep-3}}},
    {"BottomUp", "LRA", MergerKind::kRTmerger,
     {{2, 0x1.25ecd215b353cp-2, 0x1p+0, 0x1.010bc4dd3ca9ep-2},
      {4, 0x1.10f506e5ef654p-2, 0x1p+0, 0x1.922537d5f9d59p-2}}},
    {"Cluster", "VPA", MergerKind::kTmerger,
     {{2, 0x1.15e7669733828p-2, 0x1.955133e87a6d4p-1, 0x1.eaa4c59490757p-3},
      {4, 0x1.11a1c114f48fcp-2, 0x1.ed9baaaf9d3p-1, 0x1.1c67fbde41c41p-2}}},
};

TEST(CompareGoldenTest, RtGridMatchesPinnedMetrics) {
  SyntheticOptions data;  // the benchmark's dataset shape, fewer records
  data.num_records = 300;
  data.seed = 2014;
  SecretaSession session;
  ASSERT_OK_AND_ASSIGN(Dataset dataset, GenerateRtDataset(data));
  ASSERT_OK(session.SetDataset(std::move(dataset)));
  ASSERT_OK(session.AutoGenerateHierarchies());
  WorkloadGenOptions queries;
  queries.num_queries = 200;
  queries.seed = 2014;
  ASSERT_OK(session.GenerateQueryWorkload(queries));

  std::vector<AlgorithmConfig> configs;
  for (const GoldenConfig& golden : kGolden) {
    AlgorithmConfig config;
    config.mode = AnonMode::kRt;
    config.relational_algorithm = golden.relational;
    config.transaction_algorithm = golden.transaction;
    config.merger = golden.merger;
    config.params.m = 2;
    config.params.delta = 0.35;
    configs.push_back(config);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<SweepResult> results,
                       session.Compare(configs, ParamSweep{"k", 2, 4, 2}));
  ASSERT_EQ(results.size(), configs.size());

  // On a mismatch, the actual table is printed in the literal's layout.
  std::string actual;
  for (size_t c = 0; c < results.size(); ++c) {
    const GoldenConfig& golden = kGolden[c];
    SCOPED_TRACE(results[c].base.Label());
    ASSERT_EQ(results[c].points.size(), 2u);
    char row[512];
    std::snprintf(row, sizeof(row), "    {\"%s\", \"%s\", MergerKind::k%s, {",
                  golden.relational, golden.transaction,
                  MergerKindToString(golden.merger));
    actual += row;
    for (size_t i = 0; i < 2; ++i) {
      const EvaluationReport& report = results[c].points[i].report;
      const GoldenCell& cell = golden.cells[i];
      EXPECT_EQ(results[c].points[i].value, cell.k);
      EXPECT_TRUE(report.guarantee_ok) << "k=" << cell.k;
      EXPECT_EQ(report.are, cell.are) << "k=" << cell.k;
      EXPECT_EQ(report.gcp, cell.gcp) << "k=" << cell.k;
      EXPECT_EQ(report.ul, cell.ul) << "k=" << cell.k;
      std::snprintf(row, sizeof(row), "%s{%d, %a, %a, %a}", i ? ", " : "",
                    cell.k, report.are, report.gcp, report.ul);
      actual += row;
    }
    actual += "}},\n";
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "actual table:\n" << actual;
  }
}

}  // namespace
}  // namespace secreta
