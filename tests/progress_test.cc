// Tests for progressive execution: progress events fire once per finished
// sweep point, carry the finished report, and are serialized across the
// comparator's worker threads.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>

#include "common/cancellation.h"
#include "engine/comparator.h"
#include "hierarchy/hierarchy_builder.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

class ProgressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = testing::SmallRtDataset(120, 811);
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

TEST_F(ProgressTest, SweepEmitsOneEventPerPoint) {
  AlgorithmConfig config;
  config.mode = AnonMode::kRelational;
  config.relational_algorithm = "Cluster";
  ParamSweep sweep{"k", 2, 8, 2};
  std::vector<double> seen_values;
  std::vector<size_t> seen_indices;
  ProgressCallback progress = [&](const ProgressEvent& event) {
    EXPECT_EQ(event.total_points, 4u);
    ASSERT_NE(event.report, nullptr);
    EXPECT_TRUE(event.report->guarantee_ok);
    seen_values.push_back(event.value);
    seen_indices.push_back(event.point_index);
  };
  ASSERT_OK_AND_ASSIGN(SweepResult result,
                       RunSweep(inputs_, config, sweep, nullptr, progress));
  EXPECT_EQ(result.points.size(), 4u);
  EXPECT_EQ(seen_values, (std::vector<double>{2, 4, 6, 8}));
  EXPECT_EQ(seen_indices, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST_F(ProgressTest, NoCallbackIsFine) {
  AlgorithmConfig config;
  config.mode = AnonMode::kTransaction;
  config.transaction_algorithm = "COAT";
  ParamSweep sweep{"k", 2, 4, 2};
  ASSERT_OK(RunSweep(inputs_, config, sweep, nullptr).status());
}

TEST_F(ProgressTest, ComparatorSerializesEventsAcrossThreads) {
  std::vector<AlgorithmConfig> configs(3);
  for (size_t i = 0; i < 3; ++i) {
    configs[i].mode = AnonMode::kTransaction;
    configs[i].transaction_algorithm =
        std::vector<std::string>{"Apriori", "COAT", "PCTA"}[i];
  }
  ParamSweep sweep{"k", 2, 6, 2};
  ASSERT_OK_AND_ASSIGN(std::vector<double> values, sweep.Values());
  std::atomic<int> concurrent{0};
  std::atomic<bool> overlapped{false};
  std::mutex seen_mutex;
  std::set<std::pair<size_t, size_t>> seen;
  CompareOptions options;
  options.num_threads = 3;
  options.progress = [&](const ProgressEvent& event) {
    if (concurrent.fetch_add(1) != 0) overlapped = true;
    {
      std::lock_guard<std::mutex> lock(seen_mutex);
      seen.insert({event.config_index, event.point_index});
    }
    // Each event names its own cell of the grid, whatever order the cells
    // finish in.
    EXPECT_EQ(event.total_points, values.size());
    if (event.config_index < configs.size() &&
        event.point_index < values.size() && event.report != nullptr) {
      EXPECT_EQ(event.value, values[event.point_index]);
      const AlgorithmConfig& run_config = event.report->run.config;
      EXPECT_EQ(run_config.params.k, static_cast<int>(event.value));
      EXPECT_EQ(run_config.transaction_algorithm,
                configs[event.config_index].transaction_algorithm);
    } else {
      ADD_FAILURE() << "bad event: config " << event.config_index
                    << ", point " << event.point_index;
    }
    concurrent.fetch_sub(1);
  };
  ASSERT_OK_AND_ASSIGN(
      auto results, CompareMethods(inputs_, configs, sweep, nullptr, options));
  EXPECT_FALSE(overlapped) << "progress callbacks must be serialized";
  EXPECT_EQ(seen.size(), 9u);  // 3 configs x 3 points, all distinct
  EXPECT_EQ(results.size(), 3u);
}

TEST_F(ProgressTest, ComparatorSerializesEventsWhenCancelledMidFlight) {
  // Cancelling from inside a progress callback must not break the
  // serialization guarantee: points already executing may still finish and
  // report, but their callbacks stay mutually excluded, and the comparator
  // returns Cancelled.
  std::vector<AlgorithmConfig> configs(3);
  for (size_t i = 0; i < 3; ++i) {
    configs[i].mode = AnonMode::kTransaction;
    configs[i].transaction_algorithm =
        std::vector<std::string>{"Apriori", "COAT", "PCTA"}[i];
  }
  ParamSweep sweep{"k", 2, 6, 2};
  CancellationToken token;
  std::atomic<int> concurrent{0};
  std::atomic<bool> overlapped{false};
  std::atomic<int> events{0};
  CompareOptions options;
  options.num_threads = 3;
  options.progress = [&](const ProgressEvent&) {
    if (concurrent.fetch_add(1) != 0) overlapped = true;
    if (events.fetch_add(1) == 0) token.Cancel();  // cancel mid-flight
    concurrent.fetch_sub(1);
  };
  EngineInputs inputs = inputs_;
  inputs.cancel = &token;
  Result<std::vector<SweepResult>> result =
      CompareMethods(inputs, configs, sweep, nullptr, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_GE(events.load(), 1);
  EXPECT_FALSE(overlapped)
      << "progress callbacks must stay serialized under cancellation";
}

}  // namespace
}  // namespace secreta
