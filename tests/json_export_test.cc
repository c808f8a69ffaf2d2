// Tests for the JSON writer and result serialization.

#include "export/json_export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

#include "hierarchy/hierarchy_builder.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

TEST(JsonWriterTest, ObjectsArraysAndScalars) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("secreta");
  w.Key("k");
  w.Int(5);
  w.Key("delta");
  w.Number(0.25);
  w.Key("ok");
  w.Bool(true);
  w.Key("none");
  w.Null();
  w.Key("tags");
  w.BeginArray();
  w.String("a");
  w.String("b");
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.TakeString(),
            "{\"name\":\"secreta\",\"k\":5,\"delta\":0.25,\"ok\":true,"
            "\"none\":null,\"tags\":[\"a\",\"b\"]}");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  JsonWriter w;
  w.String("a\"b\\c\nd\te");
  EXPECT_EQ(w.TakeString(), "\"a\\\"b\\\\c\\nd\\te\"");
}

TEST(JsonWriterTest, NestedContainers) {
  JsonWriter w;
  w.BeginArray();
  w.BeginObject();
  w.Key("x");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.EndArray();
  w.EndObject();
  w.BeginObject();
  w.EndObject();
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[{\"x\":[1,2]},{}]");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Number(std::numeric_limits<double>::infinity());
  w.Number(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[null,null]");
}

// Number and Int write the bytes of printf's "%.12g" and "%" PRId64: edge
// values first, then random finite bit patterns.
TEST(JsonWriterTest, NumbersMatchPrintfBytes) {
  auto printf_bytes = [](const char* format, auto value) {
    char buf[64];
    int n = std::snprintf(buf, sizeof buf, format, value);
    return std::string(buf, static_cast<size_t>(n));
  };
  auto written = [](auto write) {
    JsonWriter w;
    write(w);
    return w.TakeString();
  };
  std::vector<double> doubles{
      0.0,
      -0.0,
      1e-5,
      0.1,
      1e21,
      123456789012.5,
      -123456789012.5,
      4.9406564584124654e-324,  // smallest subnormal
      DBL_MIN,
      -DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      1.0,
      0.25,
      1e12,
      999999999999.5,
      1.0 / 3.0,
  };
  std::mt19937_64 rng(20140324);
  size_t random = 0;
  while (random < 120000) {
    uint64_t bits = rng();
    double value = 0;
    std::memcpy(&value, &bits, sizeof value);
    if (!std::isfinite(value)) continue;
    doubles.push_back(value);
    ++random;
  }
  for (double value : doubles) {
    ASSERT_EQ(written([&](JsonWriter& w) { w.Number(value); }),
              printf_bytes("%.12g", value))
        << std::hexfloat << value;
  }
  for (int64_t value : {int64_t{0}, int64_t{-1}, int64_t{42},
                        std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(written([&](JsonWriter& w) { w.Int(value); }),
              printf_bytes("%" PRId64, value));
  }
}

class JsonReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = testing::SmallRtDataset(100, 131);
    hierarchies_ = std::move(BuildAllColumnHierarchies(dataset_)).ValueOrDie();
    item_hierarchy_ = std::move(BuildItemHierarchy(dataset_)).ValueOrDie();
    rel_.emplace(std::move(
        RelationalContext::Create(dataset_, hierarchies_)).ValueOrDie());
    txn_.emplace(std::move(
        TransactionContext::Create(dataset_, &item_hierarchy_)).ValueOrDie());
    inputs_.dataset = &dataset_;
    inputs_.relational = &*rel_;
    inputs_.transaction = &*txn_;
  }

  Dataset dataset_;
  std::vector<Hierarchy> hierarchies_;
  Hierarchy item_hierarchy_;
  std::optional<RelationalContext> rel_;
  std::optional<TransactionContext> txn_;
  EngineInputs inputs_;
};

TEST_F(JsonReportTest, ReportJsonContainsEverySection) {
  AlgorithmConfig config;
  config.mode = AnonMode::kRt;
  config.relational_algorithm = "Cluster";
  config.transaction_algorithm = "Apriori";
  config.params.k = 4;
  ASSERT_OK_AND_ASSIGN(EvaluationReport report,
                       EvaluateMethod(inputs_, config, nullptr));
  std::string json = EvaluationReportToJson(report);
  for (const char* needle :
       {"\"config\"", "\"metrics\"", "\"phases\"", "\"clusters\"",
        "\"guarantee\"", "\"gcp\"", "\"relational_algorithm\":\"Cluster\"",
        "\"ok\":true"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(JsonReportTest, SweepAndComparisonJson) {
  AlgorithmConfig config;
  config.mode = AnonMode::kRelational;
  config.relational_algorithm = "BottomUp";
  ParamSweep sweep{"k", 2, 4, 2};
  ASSERT_OK_AND_ASSIGN(SweepResult result,
                       RunSweep(inputs_, config, sweep, nullptr));
  std::string json = SweepResultToJson(result);
  EXPECT_NE(json.find("\"parameter\":\"k\""), std::string::npos);
  EXPECT_NE(json.find("\"points\""), std::string::npos);
  std::string cmp = ComparisonToJson({result, result});
  EXPECT_EQ(cmp.front(), '[');
  EXPECT_EQ(cmp.back(), ']');
  EXPECT_EQ(std::count(cmp.begin(), cmp.end(), '{'),
            std::count(cmp.begin(), cmp.end(), '}'));
  // File write.
  std::string path = ::testing::TempDir() + "/secreta_sweep.json";
  ASSERT_OK(WriteJsonFile(json, path));
}

}  // namespace
}  // namespace secreta
