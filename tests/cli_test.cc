// Tests for the command-line frontend: full scripted workflows and error
// handling, driven in-process through CommandLineInterface.

#include "frontend/cli.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "csv/csv.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

class CliTest : public ::testing::Test {
 protected:
  Status Run(const std::string& line) { return cli_.Execute(line); }
  std::string TakeOutput() {
    std::string text = out_.str();
    out_.str("");
    return text;
  }

  std::ostringstream out_;
  CommandLineInterface cli_{&out_};
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  ASSERT_OK(Run("help"));
  EXPECT_NE(TakeOutput().find("evaluate:"), std::string::npos);
  Status status = Run("frobnicate");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(CliTest, CommentsAndBlankLinesIgnored) {
  ASSERT_OK(Run(""));
  ASSERT_OK(Run("   "));
  ASSERT_OK(Run("# a comment"));
}

TEST_F(CliTest, CommandsRequireDataset) {
  EXPECT_EQ(Run("info").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Run("run").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Run("hist Age").code(), StatusCode::kFailedPrecondition);
}

TEST_F(CliTest, GenerateInfoHist) {
  ASSERT_OK(Run("generate 150 7"));
  EXPECT_NE(TakeOutput().find("150 records"), std::string::npos);
  ASSERT_OK(Run("info"));
  std::string info = TakeOutput();
  EXPECT_NE(info.find("Age (numeric, qid)"), std::string::npos);
  EXPECT_NE(info.find("Items (transaction"), std::string::npos);
  ASSERT_OK(Run("hist Gender"));
  EXPECT_NE(TakeOutput().find('#'), std::string::npos);
}

TEST_F(CliTest, FullEvaluationWorkflow) {
  ASSERT_OK(Run("generate 200 11"));
  ASSERT_OK(Run("hierarchies auto"));
  ASSERT_OK(Run("workload gen 20"));
  ASSERT_OK(Run("mode rt"));
  ASSERT_OK(Run("algo rel Cluster"));
  ASSERT_OK(Run("algo txn Apriori"));
  ASSERT_OK(Run("merger RTmerger"));
  ASSERT_OK(Run("param k 4"));
  ASSERT_OK(Run("param m 2"));
  ASSERT_OK(Run("param delta 0.3"));
  TakeOutput();
  ASSERT_OK(Run("run"));
  std::string report = TakeOutput();
  EXPECT_NE(report.find("guarantee (k,km)-anonymity: OK"), std::string::npos);
  EXPECT_NE(report.find("GCP"), std::string::npos);
  // Export paths.
  std::string out_csv = ::testing::TempDir() + "/secreta_cli_out.csv";
  ASSERT_OK(Run("save-output " + out_csv));
  ASSERT_OK_AND_ASSIGN(Dataset anon, Dataset::LoadFile(out_csv));
  EXPECT_EQ(anon.num_records(), 200u);
  // Recipient-side audit of the produced output.
  ASSERT_OK(Run("audit 4 2"));
  EXPECT_NE(TakeOutput().find("k-anonymity OK"), std::string::npos);
  std::string out_json = ::testing::TempDir() + "/secreta_cli_out.json";
  ASSERT_OK(Run("export-json " + out_json));
  ASSERT_OK_AND_ASSIGN(std::string json, csv::ReadFile(out_json));
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"guarantee\""), std::string::npos);
  // Generalization-mapping export.
  std::string map_csv = ::testing::TempDir() + "/secreta_cli_mapping.csv";
  ASSERT_OK(Run("save-mapping " + map_csv));
  ASSERT_OK_AND_ASSIGN(csv::CsvTable mapping, csv::ReadCsvFile(map_csv));
  ASSERT_GT(mapping.size(), 1u);
  EXPECT_EQ(mapping[0][0], "attribute");
}

TEST_F(CliTest, SweepAndJsonExport) {
  ASSERT_OK(Run("generate 150 13"));
  ASSERT_OK(Run("hierarchies auto"));
  ASSERT_OK(Run("mode relational"));
  ASSERT_OK(Run("algo rel BottomUp"));
  ASSERT_OK(Run("sweep k 2 6 2"));
  EXPECT_NE(TakeOutput().find("vs k"), std::string::npos);
  std::string path = ::testing::TempDir() + "/secreta_cli_sweep.json";
  ASSERT_OK(Run("export-json " + path));
  ASSERT_OK_AND_ASSIGN(std::string json, csv::ReadFile(path));
  EXPECT_NE(json.find("\"points\""), std::string::npos);
}

TEST_F(CliTest, SweepAndCompareRefuseNonFiniteBounds) {
  ASSERT_OK(Run("generate 120 17"));
  ASSERT_OK(Run("hierarchies auto"));
  ASSERT_OK(Run("mode relational"));
  ASSERT_OK(Run("algo rel Cluster"));
  Status nan_step = Run("sweep k 2 4 nan");
  EXPECT_EQ(nan_step.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan_step.message().find("step must be finite"), std::string::npos)
      << nan_step.ToString();
  EXPECT_EQ(Run("sweep k 2 inf 2").code(), StatusCode::kInvalidArgument);
  ASSERT_OK(Run("add-config"));
  Status nan_start = Run("compare k nan 4 2");
  EXPECT_EQ(nan_start.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan_start.message().find("start must be finite"),
            std::string::npos)
      << nan_start.ToString();
}

TEST_F(CliTest, CompareRequiresQueuedConfigs) {
  ASSERT_OK(Run("generate 120 17"));
  ASSERT_OK(Run("hierarchies auto"));
  EXPECT_EQ(Run("compare k 2 4 2").code(), StatusCode::kFailedPrecondition);
  ASSERT_OK(Run("mode transaction"));
  ASSERT_OK(Run("algo txn Apriori"));
  ASSERT_OK(Run("add-config"));
  ASSERT_OK(Run("algo txn COAT"));
  ASSERT_OK(Run("add-config"));
  ASSERT_OK(Run("configs"));
  EXPECT_NE(TakeOutput().find("[2]"), std::string::npos);
  ASSERT_OK(Run("compare k 2 4 2"));
  std::string path = ::testing::TempDir() + "/secreta_cli_cmp.json";
  ASSERT_OK(Run("export-json " + path));
  ASSERT_OK_AND_ASSIGN(std::string json, csv::ReadFile(path));
  EXPECT_EQ(json.front(), '[');
}

TEST_F(CliTest, EditCommands) {
  ASSERT_OK(Run("generate 50 19"));
  ASSERT_OK(Run("rename-attr Items Diagnoses"));
  ASSERT_OK(Run("set-cell 0 Age 44"));
  ASSERT_OK(Run("set-cell 0 Diagnoses i001 i002"));
  ASSERT_OK(Run("del-row 1"));
  ASSERT_OK(Run("info"));
  std::string info = TakeOutput();
  EXPECT_NE(info.find("49 records"), std::string::npos);
  EXPECT_NE(info.find("Diagnoses"), std::string::npos);
  EXPECT_EQ(Run("set-cell notanumber Age 4").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(Run("del-row 9999").ok());
}

TEST_F(CliTest, ParamValidationAndBadAlgorithms) {
  EXPECT_FALSE(Run("param k 1").ok());         // k >= 2
  EXPECT_FALSE(Run("param bogus 3").ok());     // unknown parameter
  EXPECT_FALSE(Run("algo rel Nope").ok());     // unknown algorithm
  EXPECT_FALSE(Run("algo txn Nope").ok());
  EXPECT_FALSE(Run("merger Nope").ok());
  EXPECT_FALSE(Run("mode sideways").ok());
  ASSERT_OK(Run("algorithms"));
  std::string listing = TakeOutput();
  EXPECT_NE(listing.find("Incognito"), std::string::npos);
  EXPECT_NE(listing.find("COAT"), std::string::npos);
  EXPECT_NE(listing.find("RTmerger"), std::string::npos);
}

TEST_F(CliTest, DemoCommandRunsWalkthrough) {
  ASSERT_OK(Run("demo"));
  std::string output = TakeOutput();
  EXPECT_NE(output.find("guarantee (k,km)-anonymity: OK"), std::string::npos);
  EXPECT_NE(output.find("equivalence-class sizes"), std::string::npos);
  EXPECT_NE(output.find("vs delta"), std::string::npos);
}

TEST_F(CliTest, RunScriptCountsFailures) {
  std::istringstream script(
      "generate 100 3\n"
      "bogus-command\n"
      "hierarchies auto\n"
      "quit\n"
      "never-reached\n");
  size_t failures = cli_.RunScript(script, /*stop_on_error=*/false);
  EXPECT_EQ(failures, 1u);
  EXPECT_TRUE(cli_.done());
}

TEST_F(CliTest, ScriptStopOnError) {
  std::istringstream script(
      "bogus\n"
      "generate 100\n");
  size_t failures = cli_.RunScript(script, /*stop_on_error=*/true);
  EXPECT_EQ(failures, 1u);
  EXPECT_FALSE(cli_.session().has_dataset());
}

TEST_F(CliTest, HierarchyFileRoundTripThroughCli) {
  ASSERT_OK(Run("generate 80 23"));
  ASSERT_OK(Run("hierarchies auto"));
  std::string path = ::testing::TempDir() + "/secreta_cli_hier.csv";
  ASSERT_OK(Run("hierarchy save Gender " + path));
  ASSERT_OK(Run("hierarchy load Gender " + path));
  ASSERT_OK(Run("policies auto"));
  EXPECT_NE(TakeOutput().find("privacy constraints"), std::string::npos);
  // Browsable hierarchy pane.
  ASSERT_OK(Run("hierarchy show Age"));
  std::string tree = TakeOutput();
  EXPECT_NE(tree.find("leaves)"), std::string::npos);
  EXPECT_FALSE(Run("hierarchy show Nope").ok());
}

// A sharded run's merged audit judges, and prints, only what its mode
// promises: k for relational, k^m for transaction, both for RT runs.
TEST_F(CliTest, ShardRunAuditsOnlyTheModesGuarantee) {
  ASSERT_OK(Run("generate 200 7"));
  ASSERT_OK(Run("param k 4"));
  ASSERT_OK(Run("param m 2"));
  struct Case {
    std::vector<std::string> setup;
    std::string audit;  // the line's start, up to its details
  };
  const Case cases[] = {
      {{"mode relational", "algo rel Incognito"},
       "merged audit: k-anonymity OK (min class "},
      {{"mode transaction", "algo txn COAT"}, "merged audit: k^m OK — ok"},
      {{"mode rt", "algo rel Cluster", "algo txn COAT", "merger RTmerger"},
       "merged audit: k-anonymity OK, k^m OK (min class "},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.setup[0]);
    for (const std::string& line : c.setup) ASSERT_OK(Run(line));
    TakeOutput();
    ASSERT_OK(Run("shard-run shards=4"));
    const std::string out = TakeOutput();
    const size_t at = out.find("merged audit: ");
    ASSERT_NE(at, std::string::npos) << out;
    const std::string audit = out.substr(at, out.find('\n', at) - at);
    EXPECT_EQ(audit.rfind(c.audit, 0), 0u) << audit;
    EXPECT_EQ(audit.find("VIOLATED"), std::string::npos) << audit;
  }
}

}  // namespace
}  // namespace secreta
