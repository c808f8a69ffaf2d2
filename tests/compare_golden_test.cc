// Golden test of Comparison mode (paper Fig. 4): the five RT configurations
// of the compare_grid benchmark, over k in {2, 4}, on small fixed datasets
// and workloads (the benchmark's shape at m = 2, and a 200-item domain at
// m = 3). Every cell's ARE, GCP and UL is pinned as a hex-float
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

const GoldenConfig kGoldenWideM3[] = {
    {"Cluster", "Apriori", MergerKind::kRTmerger,
     {{2, 0x1.0f32bf9873264p-2, 0x1.e85d05b9412a8p-1, 0x1.2a6b74632ced2p-3},
      {4, 0x1.043ef854acde4p-2, 0x1p+0, 0x1.fe73fec7a8813p-3}}},
    {"Incognito", "COAT", MergerKind::kRmerger,
     {{2, 0x1.0989457c94918p-2, 0x1.88ecb199ec7dfp-2, 0x1.aa2ff601c5a44p-3},
      {4, 0x1.079858e0a4ef4p-2, 0x1.bf04bc4956e59p-2, 0x1.f09c673e1087ap-3}}},
    {"TopDown", "PCTA", MergerKind::kTmerger,
     {{2, 0x1.0727e85bfbffdp-2, 0x1.8724ca888f70ep-1, 0x1.442c18ecb24e7p-3},
      {4, 0x1.1914d46b1a211p-2, 0x1.e0ede1894d667p-1, 0x1.9658b045f398cp-4}}},
    {"BottomUp", "LRA", MergerKind::kRTmerger,
     {{2, 0x1.02e27c3cb321ep-2, 0x1p+0, 0x1.0c029d4dc7c9dp-1},
      {4, 0x1.00e8d64e42728p-2, 0x1p+0, 0x1.d6bac29a83db5p-1}}},
    {"Cluster", "VPA", MergerKind::kTmerger,
     {{2, 0x1.050f71301f1acp-2, 0x1.d334f63fa4d2fp-1, 0x1.0f3e69c50eebp-2},
      {4, 0x1.044800502d0c3p-2, 0x1.e4bd41444ed0ap-1, 0x1.216bef17d5d26p-2}}},
};

// Runs the five configurations over k in {2, 4} at `m` on `data` and
// compares every cell with `golden`.
void ExpectGridMatches(const SyntheticOptions& data, int m,
                       const GoldenConfig (&golden_table)[5]) {
  SecretaSession session;
  ASSERT_OK_AND_ASSIGN(Dataset dataset, GenerateRtDataset(data));
  ASSERT_OK(session.SetDataset(std::move(dataset)));
  ASSERT_OK(session.AutoGenerateHierarchies());
  WorkloadGenOptions queries;
  queries.num_queries = 200;
  queries.seed = 2014;
  ASSERT_OK(session.GenerateQueryWorkload(queries));

  std::vector<AlgorithmConfig> configs;
  for (const GoldenConfig& golden : golden_table) {
    AlgorithmConfig config;
    config.mode = AnonMode::kRt;
    config.relational_algorithm = golden.relational;
    config.transaction_algorithm = golden.transaction;
    config.merger = golden.merger;
    config.params.m = m;
    config.params.delta = 0.35;
    configs.push_back(config);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<SweepResult> results,
                       session.Compare(configs, ParamSweep{"k", 2, 4, 2}));
  ASSERT_EQ(results.size(), configs.size());

  // On a mismatch, the actual table is printed in the literal's layout.
  std::string actual;
  for (size_t c = 0; c < results.size(); ++c) {
    const GoldenConfig& golden = golden_table[c];
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

TEST(CompareGoldenTest, RtGridMatchesPinnedMetrics) {
  SyntheticOptions data;  // the benchmark's dataset shape, fewer records
  data.num_records = 300;
  data.seed = 2014;
  ExpectGridMatches(data, /*m=*/2, kGolden);
}

// The same grid at m = 3 over a 200-item domain: item ids past the second
// 64-bit word (the last word partial) and three-item itemsets in every
// violation search.
TEST(CompareGoldenTest, WideDomainM3GridMatchesPinnedMetrics) {
  SyntheticOptions data;
  data.num_records = 300;
  data.num_items = 200;
  data.seed = 2014;
  ExpectGridMatches(data, /*m=*/3, kGoldenWideM3);
}

}  // namespace
}  // namespace secreta
