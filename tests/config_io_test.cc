// Tests for the one-line AlgorithmConfig spec parser/formatter, the
// class-size histogram, and the new CLI commands built on them.

#include "engine/config_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "frontend/cli.h"
#include "metrics/frequency.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

TEST(ConfigIoTest, ParsesFullRtSpec) {
  ASSERT_OK_AND_ASSIGN(
      AlgorithmConfig config,
      ParseAlgorithmConfig(
          "mode=rt rel=Incognito txn=COAT merger=Tmerger k=7 m=3 delta=0.4"));
  EXPECT_EQ(config.mode, AnonMode::kRt);
  EXPECT_EQ(config.relational_algorithm, "Incognito");
  EXPECT_EQ(config.transaction_algorithm, "COAT");
  EXPECT_EQ(config.merger, MergerKind::kTmerger);
  EXPECT_EQ(config.params.k, 7);
  EXPECT_EQ(config.params.m, 3);
  EXPECT_DOUBLE_EQ(config.params.delta, 0.4);
}

TEST(ConfigIoTest, DefaultsSurviveOmission) {
  ASSERT_OK_AND_ASSIGN(AlgorithmConfig config, ParseAlgorithmConfig("k=9"));
  EXPECT_EQ(config.params.k, 9);
  EXPECT_EQ(config.mode, AnonMode::kRt);  // default preserved
  EXPECT_EQ(config.relational_algorithm, "Cluster");
}

TEST(ConfigIoTest, RejectsBadSpecs) {
  EXPECT_FALSE(ParseAlgorithmConfig("mode=sideways").ok());
  EXPECT_FALSE(ParseAlgorithmConfig("rel=Nope").ok());
  EXPECT_FALSE(ParseAlgorithmConfig("txn=Nope").ok());
  EXPECT_FALSE(ParseAlgorithmConfig("merger=Nope").ok());
  EXPECT_FALSE(ParseAlgorithmConfig("k").ok());
  EXPECT_FALSE(ParseAlgorithmConfig("k=").ok());
  EXPECT_FALSE(ParseAlgorithmConfig("k=1").ok());       // validation: k >= 2
  EXPECT_FALSE(ParseAlgorithmConfig("bogus=3").ok());   // unknown key
  EXPECT_FALSE(ParseAlgorithmConfig("k=abc").ok());
}

TEST(ConfigIoTest, FormatParsesBack) {
  AlgorithmConfig config;
  config.mode = AnonMode::kRt;
  config.relational_algorithm = "TopDown";
  config.transaction_algorithm = "LRA";
  config.merger = MergerKind::kRmerger;
  config.params.k = 4;
  config.params.lra_partitions = 12;
  std::string spec = FormatAlgorithmConfig(config);
  ASSERT_OK_AND_ASSIGN(AlgorithmConfig back, ParseAlgorithmConfig(spec));
  EXPECT_EQ(back.mode, config.mode);
  EXPECT_EQ(back.relational_algorithm, config.relational_algorithm);
  EXPECT_EQ(back.transaction_algorithm, config.transaction_algorithm);
  EXPECT_EQ(back.merger, config.merger);
  EXPECT_EQ(back.params.k, config.params.k);
  EXPECT_EQ(back.params.lra_partitions, config.params.lra_partitions);
}

TEST(ClassSizeHistogramTest, CountsClassesBySize) {
  EquivalenceClasses classes = testing::ClassesOf({{0, 1}, {2, 3}, {4, 5, 6}});
  Histogram hist = ClassSizeHistogram(classes);
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0].label, "2 records");
  EXPECT_EQ(hist[0].count, 2u);
  EXPECT_EQ(hist[1].label, "3 records");
  EXPECT_EQ(hist[1].count, 1u);
}

TEST(CliConfigTest, ConfigAndClassesCommands) {
  std::ostringstream out;
  CommandLineInterface cli(&out);
  ASSERT_OK(cli.Execute("generate 120 901"));
  ASSERT_OK(cli.Execute("hierarchies auto"));
  ASSERT_OK(cli.Execute("config mode=relational rel=Cluster k=4"));
  ASSERT_OK(cli.Execute("config"));
  EXPECT_NE(out.str().find("mode=relational rel=Cluster"), std::string::npos);
  EXPECT_EQ(cli.Execute("classes").code(), StatusCode::kFailedPrecondition);
  ASSERT_OK(cli.Execute("run"));
  out.str("");
  ASSERT_OK(cli.Execute("classes"));
  EXPECT_NE(out.str().find("equivalence-class sizes"), std::string::npos);
  EXPECT_NE(out.str().find("records"), std::string::npos);
  EXPECT_FALSE(cli.Execute("config k=0").ok());
}

}  // namespace
}  // namespace secreta
