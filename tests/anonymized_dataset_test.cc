// Property tests for the anonymized dataset. BuildAnonymizedDataset
// (core/recoding.h) builds it from ids; oracle::AnonymizedDatasetByRows
// (tests/oracle) builds it from each record's label strings through
// Dataset::AddRow. The two must agree cell for cell, and
// Dataset::AppendCsvLine must write every row exactly as
// csv::WriteCsvLine(CsvRow(row)) does.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/recoding.h"
#include "csv/csv.h"
#include "engine/anonymization_module.h"
#include "hierarchy/hierarchy_builder.h"
#include "tests/oracle/anonymized_dataset_oracle.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

using secreta::testing::SmallRtDataset;

// Schema, each dictionary's values in id order, numeric tables, cells and
// transactions; then every row's AppendCsvLine against WriteCsvLine(CsvRow).
void ExpectSameDataset(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.schema().num_attributes(), want.schema().num_attributes());
  for (size_t a = 0; a < want.schema().num_attributes(); ++a) {
    const AttributeSpec& g = got.schema().attribute(a);
    const AttributeSpec& w = want.schema().attribute(a);
    EXPECT_EQ(g.name, w.name) << "attribute " << a;
    EXPECT_EQ(g.type, w.type) << "attribute " << a;
    EXPECT_EQ(g.role, w.role) << "attribute " << a;
  }
  ASSERT_EQ(got.num_records(), want.num_records());
  ASSERT_EQ(got.num_relational(), want.num_relational());
  for (size_t col = 0; col < want.num_relational(); ++col) {
    EXPECT_EQ(got.dictionary(col).values(), want.dictionary(col).values())
        << "column " << col;
    ASSERT_EQ(got.is_numeric(col), want.is_numeric(col)) << "column " << col;
    if (!want.is_numeric(col)) continue;
    for (size_t id = 0; id < want.dictionary(col).size(); ++id) {
      EXPECT_EQ(got.numeric_value(col, static_cast<ValueId>(id)).raw(),
                want.numeric_value(col, static_cast<ValueId>(id)).raw())
          << "column " << col << " id " << id;
    }
  }
  EXPECT_EQ(got.item_dictionary().values(), want.item_dictionary().values());
  for (size_t r = 0; r < want.num_records(); ++r) {
    for (size_t col = 0; col < want.num_relational(); ++col) {
      ASSERT_EQ(got.value(r, col).raw(), want.value(r, col).raw())
          << "row " << r << " column " << col;
    }
    ASSERT_EQ(got.items(r).raw(), want.items(r).raw()) << "row " << r;
    // AppendCsvLine appends: what the buffer held stays in front.
    std::string line = "prefix|";
    got.AppendCsvLine(r, &line);
    ASSERT_EQ(line, "prefix|" + csv::WriteCsvLine(got.CsvRow(r)))
        << "row " << r;
  }
}

// Builds the anonymized dataset both ways and compares them.
void ExpectBuildersAgree(const Dataset& original,
                         const RelationalContext* rel_context,
                         const RelationalRecoding* relational,
                         const TransactionRecoding* transaction) {
  ASSERT_OK_AND_ASSIGN(
      Dataset got,
      BuildAnonymizedDataset(original, rel_context, relational, transaction));
  ASSERT_OK_AND_ASSIGN(Dataset want,
                       oracle::AnonymizedDatasetByRows(
                           original, rel_context, relational, transaction));
  ExpectSameDataset(got, want);
}

// Runs `config` over `dataset` with auto-built hierarchies and compares the
// two builders on its output; `built` (optional) receives the build.
void CheckPipeline(const Dataset& dataset, const AlgorithmConfig& config,
                   std::optional<Dataset>* built = nullptr) {
  SCOPED_TRACE(config.Label());
  ASSERT_OK_AND_ASSIGN(std::vector<Hierarchy> hierarchies,
                       BuildAllColumnHierarchies(dataset));
  ASSERT_OK_AND_ASSIGN(Hierarchy item_hierarchy, BuildItemHierarchy(dataset));
  std::optional<RelationalContext> relational;
  std::optional<TransactionContext> transaction;
  EngineInputs inputs;
  inputs.dataset = &dataset;
  if (config.mode != AnonMode::kTransaction) {
    ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                         RelationalContext::Create(dataset, hierarchies));
    relational = std::move(ctx);
    inputs.relational = &*relational;
  }
  if (config.mode != AnonMode::kRelational) {
    ASSERT_OK_AND_ASSIGN(TransactionContext ctx,
                         TransactionContext::Create(dataset, &item_hierarchy));
    transaction = std::move(ctx);
    inputs.transaction = &*transaction;
  }
  ASSERT_OK_AND_ASSIGN(RunResult run, RunAnonymization(inputs, config));
  const RelationalContext* rel_context =
      run.relational.has_value() ? inputs.relational : nullptr;
  const RelationalRecoding* rel =
      run.relational.has_value() ? &*run.relational : nullptr;
  const TransactionRecoding* txn =
      run.transaction.has_value() ? &*run.transaction : nullptr;
  ExpectBuildersAgree(dataset, rel_context, rel, txn);
  if (built != nullptr) {
    ASSERT_OK_AND_ASSIGN(*built,
                         BuildAnonymizedDataset(dataset, rel_context, rel, txn));
  }
}

TEST(AnonymizedDatasetProperty, RelationalAlgorithmsPassTransactionsThrough) {
  Dataset dataset = SmallRtDataset(240, 71);
  for (const char* algorithm : {"Incognito", "Cluster", "TopDown", "BottomUp"}) {
    for (int k : {3, 8}) {
      AlgorithmConfig config;
      config.mode = AnonMode::kRelational;
      config.relational_algorithm = algorithm;
      config.params.k = k;
      CheckPipeline(dataset, config);
    }
  }
}

TEST(AnonymizedDatasetProperty, TransactionAlgorithmsKeepNumericQisNumeric) {
  Dataset dataset = SmallRtDataset(240, 73);
  ASSERT_OK_AND_ASSIGN(size_t age, dataset.ColumnByName("Age"));
  ASSERT_TRUE(dataset.is_numeric(age));
  for (const char* algorithm : {"Apriori", "LRA", "VPA", "COAT", "PCTA"}) {
    AlgorithmConfig config;
    config.mode = AnonMode::kTransaction;
    config.transaction_algorithm = algorithm;
    config.params.k = 4;
    config.params.m = 2;
    std::optional<Dataset> built;
    CheckPipeline(dataset, config, &built);
    ASSERT_TRUE(built.has_value());
    // The relational side passes through: the numeric QI stays numeric.
    EXPECT_TRUE(built->is_numeric(age)) << algorithm;
  }
}

TEST(AnonymizedDatasetProperty, RtPipelines) {
  Dataset dataset = SmallRtDataset(240, 79);
  struct Pipeline {
    const char* relational;
    const char* transaction;
    MergerKind merger;
  };
  for (const Pipeline& p :
       {Pipeline{"Cluster", "Apriori", MergerKind::kRTmerger},
        Pipeline{"Incognito", "COAT", MergerKind::kRmerger},
        Pipeline{"TopDown", "PCTA", MergerKind::kTmerger},
        Pipeline{"BottomUp", "LRA", MergerKind::kRTmerger},
        Pipeline{"Cluster", "VPA", MergerKind::kTmerger}}) {
    AlgorithmConfig config;
    config.mode = AnonMode::kRt;
    config.relational_algorithm = p.relational;
    config.transaction_algorithm = p.transaction;
    config.merger = p.merger;
    config.params.k = 4;
    config.params.m = 2;
    config.params.delta = 0.35;
    CheckPipeline(dataset, config);
  }
}

// The rules a generated run rarely reaches, on hand-built recodings: two
// hierarchy nodes with one label, a label with edge spaces, gen labels
// holding a space or a comma, two gens with one label, an empty
// transaction, and quotes in values and labels.
TEST(AnonymizedDatasetProperty, HandBuiltLabelsAndValues) {
  Schema schema;
  ASSERT_OK(schema.AddAttribute({"City", AttributeType::kCategorical,
                                 AttributeRole::kQuasiIdentifier}));
  ASSERT_OK(schema.AddAttribute(
      {"Salary", AttributeType::kNumeric, AttributeRole::kInsensitive}));
  ASSERT_OK(schema.AddAttribute({"Note", AttributeType::kCategorical,
                                 AttributeRole::kInsensitive}));
  ASSERT_OK(schema.AddAttribute({"Items", AttributeType::kTransaction,
                                 AttributeRole::kQuasiIdentifier}));
  const csv::CsvTable table = {
      {"City", "Salary", "Note", "Items"},
      {"d", "200", "say \"hi\", ok", "i1 i2"},
      {"a", "100", "plain", ""},
      {"c", " 300 ", "plain", "i3"},
      {"b", "100", "x,y", "i2 i3 i4"},
      {"a", "250.5", "say \"hi\", ok", "i4"},
      {"c", "300", "plain", "i1"},
  };
  ASSERT_OK_AND_ASSIGN(Dataset dataset, Dataset::FromCsv(table, schema));

  // City: root "*" over two nodes labelled "x" (one per leaf pair) and a
  // node " ab " whose label trims to "ab".
  Hierarchy city;
  ASSERT_OK_AND_ASSIGN(NodeId root, city.CreateRoot("*"));
  ASSERT_OK_AND_ASSIGN(NodeId x1, city.CreateNode("x", root));
  ASSERT_OK_AND_ASSIGN(NodeId x2, city.CreateNode("x", root));
  ASSERT_OK_AND_ASSIGN(NodeId ab, city.CreateNode(" ab ", x1));
  ASSERT_OK(city.CreateNode("a", ab).status());
  ASSERT_OK(city.CreateNode("b", ab).status());
  ASSERT_OK(city.CreateNode("c", x2).status());
  ASSERT_OK(city.CreateNode("d", x2).status());
  ASSERT_OK(city.Finalize());
  std::vector<Hierarchy> hierarchies(dataset.num_relational());
  hierarchies[0] = city;
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(dataset, hierarchies));
  ASSERT_EQ(ctx.num_qi(), 1u);
  RelationalRecoding relational(dataset.num_records(), 1);
  const std::vector<NodeId> nodes = {x2, ab, x2, x1, ctx.Leaf(4, 0), x2};
  for (size_t r = 0; r < nodes.size(); ++r) relational.set(r, 0, nodes[r]);

  TransactionRecoding transaction;
  const int32_t space = transaction.AddGen("p q", {0, 1});
  const int32_t comma = transaction.AddGen("{i2,i3}", {1, 2});
  const int32_t r1 = transaction.AddGen("r", {3});
  const int32_t r2 = transaction.AddGen("r", {0});
  const int32_t quote = transaction.AddGen("q\"t", {2});
  const int32_t edge = transaction.AddGen(" p ", {0});
  transaction.records = {{space, comma}, {}, {quote}, {comma, r1, edge},
                         {r1, r2}, {r2}};

  {
    SCOPED_TRACE("both sides recoded");
    ExpectBuildersAgree(dataset, &ctx, &relational, &transaction);
  }
  {
    SCOPED_TRACE("relational only: transactions pass through");
    ExpectBuildersAgree(dataset, &ctx, &relational, nullptr);
  }
  {
    SCOPED_TRACE("transaction only");
    ExpectBuildersAgree(dataset, nullptr, nullptr, &transaction);
  }

  // Spot-check the rules themselves on the recoded build.
  ASSERT_OK_AND_ASSIGN(
      Dataset built,
      BuildAnonymizedDataset(dataset, &ctx, &relational, &transaction));
  EXPECT_EQ(built.dictionary(0).values(),
            (std::vector<std::string>{"x", "ab", "a"}));
  EXPECT_EQ(built.item_dictionary().values(),
            (std::vector<std::string>{"p", "q", "{i2,i3}", "q\"t", "r"}));
  std::string line;
  built.AppendCsvLine(0, &line);
  EXPECT_EQ(line, "x,200,\"say \"\"hi\"\", ok\",\"p q {i2,i3}\"");
  line.clear();
  built.AppendCsvLine(1, &line);
  EXPECT_EQ(line, "ab,100,plain,");
}

// A pass-through numeric column holding a string that is not a number is
// refused by both builders, with the loader's message.
TEST(AnonymizedDatasetProperty, NonNumericPassThroughIsRefused) {
  Dataset::Parts parts;
  ASSERT_OK(parts.schema.AddAttribute({"Code", AttributeType::kCategorical,
                                       AttributeRole::kQuasiIdentifier}));
  ASSERT_OK(parts.schema.AddAttribute(
      {"Amount", AttributeType::kNumeric, AttributeRole::kInsensitive}));
  parts.dictionaries.resize(2);
  parts.dictionaries[0].GetOrAdd("c1");
  parts.dictionaries[1].GetOrAdd("12");
  parts.dictionaries[1].GetOrAdd("none");
  parts.numeric = {{}, {12.0, 0.0}};
  parts.cells = {0, 0, 0, 1};
  parts.num_records = 2;
  ASSERT_OK_AND_ASSIGN(Dataset dataset, Dataset::FromParts(std::move(parts)));
  auto got = BuildAnonymizedDataset(dataset, nullptr, nullptr, nullptr);
  auto want = oracle::AnonymizedDatasetByRows(dataset, nullptr, nullptr, nullptr);
  ASSERT_FALSE(got.ok());
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(got.status(), want.status());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

// A recoding whose shape does not match the dataset is refused instead of
// read out of bounds.
TEST(AnonymizedDatasetProperty, MismatchedRecodingIsRefused) {
  Dataset dataset = SmallRtDataset(60, 83);
  ASSERT_OK_AND_ASSIGN(std::vector<Hierarchy> hierarchies,
                       BuildAllColumnHierarchies(dataset));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(dataset, hierarchies));
  RelationalRecoding short_recoding(dataset.num_records() - 1, ctx.num_qi());
  EXPECT_EQ(BuildAnonymizedDataset(dataset, &ctx, &short_recoding, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  TransactionRecoding short_transaction;
  short_transaction.records.resize(dataset.num_records() + 1);
  EXPECT_EQ(BuildAnonymizedDataset(dataset, nullptr, nullptr,
                                   &short_transaction)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace secreta
