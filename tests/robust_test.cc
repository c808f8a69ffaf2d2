// Tests for the robustness layer: fault injection, checkpoint/resume for
// sweeps and comparison grids, job retry/backoff, and graceful degradation
// under a memory budget.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "engine/comparator.h"
#include "engine/evaluator.h"
#include "engine/experiment.h"
#include "export/json_export.h"
#include "hierarchy/hierarchy_builder.h"
#include "query/workload_generator.h"
#include "robust/checkpoint.h"
#include "robust/fault_injection.h"
#include "robust/memory_budget.h"
#include "service/job_scheduler.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

using testing::ReadFileBytes;
using testing::WriteFileBytes;

// ---------------------------------------------------------------------------
// Fault injector (the class is compiled in every build; only the engine
// SECRETA_FAULT_POINT sites are gated behind -DSECRETA_FAULTS=ON).

TEST(FaultInjectorTest, ParseSpecAcceptsTheDocumentedGrammar) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<FaultRule> rules,
      FaultInjector::ParseSpec(
          "sweep.point:fail:0.05,job.run:delay:0.25,anonymize:oom:@3,"
          "compare.config:abort:1"));
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].site, "sweep.point");
  EXPECT_EQ(rules[0].action, FaultAction::kFail);
  EXPECT_DOUBLE_EQ(rules[0].probability, 0.05);
  EXPECT_EQ(rules[0].nth, 0u);
  EXPECT_EQ(rules[1].action, FaultAction::kDelay);
  EXPECT_DOUBLE_EQ(rules[1].delay_seconds, 0.25);
  EXPECT_EQ(rules[2].action, FaultAction::kOom);
  EXPECT_EQ(rules[2].nth, 3u);
  EXPECT_EQ(rules[3].action, FaultAction::kAbort);
  EXPECT_DOUBLE_EQ(rules[3].probability, 1.0);
}

TEST(FaultInjectorTest, ParseSpecRejectsMalformedRules) {
  EXPECT_FALSE(FaultInjector::ParseSpec("a:fail").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec(":fail:0.5").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("a:explode:0.5").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("a:fail:1.5").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("a:fail:-0.1").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("a:fail:@0").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("a:delay:-1").ok());
  // Empty entries between commas are tolerated; the empty spec parses to
  // zero rules.
  ASSERT_OK_AND_ASSIGN(std::vector<FaultRule> rules,
                       FaultInjector::ParseSpec(" , ,"));
  EXPECT_TRUE(rules.empty());
}

TEST(FaultInjectorTest, NthTriggerFiresExactlyOnce) {
  FaultInjector injector;
  ASSERT_OK(injector.Configure("site:fail:@3"));
  EXPECT_TRUE(injector.armed());
  EXPECT_OK(injector.Hit("site"));
  EXPECT_OK(injector.Hit("site"));
  Status third = injector.Hit("site");
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_OK(injector.Hit("site"));
  EXPECT_EQ(injector.hits("site"), 4u);
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(injector.hits("other"), 0u);
}

TEST(FaultInjectorTest, ProbabilityEdgesAreDeterministic) {
  FaultInjector injector;
  ASSERT_OK(injector.Configure("always:abort:1,never:fail:0"));
  Status abort = injector.Hit("always");
  EXPECT_EQ(abort.code(), StatusCode::kCancelled);
  for (int i = 0; i < 50; ++i) EXPECT_OK(injector.Hit("never"));
  EXPECT_EQ(injector.injected(), 1u);
  // Unknown sites never fire and are not counted.
  EXPECT_OK(injector.Hit("unconfigured"));
}

TEST(FaultInjectorTest, ClearDisarms) {
  FaultInjector injector;
  ASSERT_OK(injector.Configure("site:fail:1"));
  EXPECT_FALSE(injector.Hit("site").ok());
  injector.Clear();
  EXPECT_FALSE(injector.armed());
  EXPECT_OK(injector.Hit("site"));
  EXPECT_EQ(injector.injected(), 0u);
  // An empty spec also disarms.
  ASSERT_OK(injector.Configure("site:fail:1"));
  ASSERT_OK(injector.Configure(""));
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectorTest, SameSeedReproducesTheFiringPattern) {
  auto pattern = [](uint64_t seed) {
    FaultInjector injector;
    EXPECT_OK(injector.Configure("site:fail:0.3", seed));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!injector.Hit("site").ok());
    return fired;
  };
  EXPECT_EQ(pattern(7), pattern(7));
  EXPECT_NE(pattern(7), pattern(8));
}

// ---------------------------------------------------------------------------
// Checkpoint log.

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

EvaluationReport MakeReport() {
  EvaluationReport report;
  report.gcp = 0.25;
  report.ul = 1.0 / 3.0;  // not representable in decimal: exercises %a
  report.are = 0.125;
  report.discernibility = 4200;
  report.cavg = 1.0 / 7.0;
  report.item_freq_error = 0.01;
  report.entropy_loss = 0.3;
  report.kl_relational = 0.000123;
  report.kl_items = 2.0 / 3.0;
  report.suppressed = 17;
  report.evaluation_seconds = 0.75;
  report.queries_per_second = 1234.5;
  report.run.runtime_seconds = 1.5;
  report.run.initial_clusters = 9;
  report.run.final_clusters = 4;
  report.run.merges = 5;
  report.run.phases.Add("relational", 0.5);
  report.run.phases.Add("transaction", 1.0);
  report.guarantee_checked = true;
  report.guarantee_ok = true;
  report.guarantee_name = "k-anonymity (k=5)";
  report.degraded = true;
  report.degraded_detail = "memory budget exceeded; shed: ARE query workload";
  return report;
}

TEST(CheckpointLogTest, AppendReopenFindRoundTripsExactly) {
  std::string path = TempPath("checkpoint_roundtrip.txt");
  std::remove(path.c_str());
  {
    ASSERT_OK_AND_ASSIGN(auto log, CheckpointLog::Open(path, 11, 22));
    EXPECT_EQ(log->loaded(), 0u);
    ASSERT_OK(log->Append(100, 2.0, MakeReport()));
    ASSERT_OK(log->Append(200, 4.0, MakeReport()));
    EXPECT_EQ(log->appended(), 2u);
    // Find sees records appended through this instance.
    EvaluationReport found;
    EXPECT_TRUE(log->Find(100, &found));
    EXPECT_FALSE(log->Find(999, &found));
  }
  ASSERT_OK_AND_ASSIGN(auto log, CheckpointLog::Open(path, 11, 22));
  EXPECT_EQ(log->loaded(), 2u);
  EvaluationReport expected = MakeReport();
  EvaluationReport restored;
  double value = 0;
  ASSERT_TRUE(log->Find(200, &restored, &value));
  EXPECT_EQ(value, 4.0);
  EXPECT_EQ(restored.gcp, expected.gcp);
  EXPECT_EQ(restored.ul, expected.ul);  // exact: hex-float round-trip
  EXPECT_EQ(restored.are, expected.are);
  EXPECT_EQ(restored.cavg, expected.cavg);
  EXPECT_EQ(restored.kl_relational, expected.kl_relational);
  EXPECT_EQ(restored.kl_items, expected.kl_items);
  EXPECT_EQ(restored.run.runtime_seconds, expected.run.runtime_seconds);
  EXPECT_EQ(restored.run.initial_clusters, expected.run.initial_clusters);
  EXPECT_EQ(restored.run.final_clusters, expected.run.final_clusters);
  EXPECT_EQ(restored.run.merges, expected.run.merges);
  ASSERT_EQ(restored.run.phases.phases().size(), 2u);
  EXPECT_EQ(restored.run.phases.phases()[0].first, "relational");
  EXPECT_EQ(restored.run.phases.phases()[0].second, 0.5);
  EXPECT_TRUE(restored.guarantee_checked);
  EXPECT_TRUE(restored.guarantee_ok);
  EXPECT_EQ(restored.guarantee_name, expected.guarantee_name);
  EXPECT_TRUE(restored.degraded);
  EXPECT_EQ(restored.degraded_detail, expected.degraded_detail);
}

TEST(CheckpointLogTest, RejectsMismatchedFingerprints) {
  std::string path = TempPath("checkpoint_fingerprint.txt");
  std::remove(path.c_str());
  {
    ASSERT_OK_AND_ASSIGN(auto log, CheckpointLog::Open(path, 11, 22));
    ASSERT_OK(log->Append(1, 2.0, MakeReport()));
  }
  const std::string bytes = ReadFileBytes(path);
  Result<std::unique_ptr<CheckpointLog>> wrong_ds =
      CheckpointLog::Open(path, 33, 22);
  ASSERT_FALSE(wrong_ds.ok());
  EXPECT_EQ(wrong_ds.status().code(), StatusCode::kFailedPrecondition);
  Result<std::unique_ptr<CheckpointLog>> wrong_wl =
      CheckpointLog::Open(path, 11, 44);
  EXPECT_FALSE(wrong_wl.ok());
  // A refused Open neither writes to nor cuts the file.
  EXPECT_EQ(ReadFileBytes(path), bytes);
  // Nor does it touch a file that is not a checkpoint at all.
  const std::string csv = "Age,Gender\n35,M\n";
  WriteFileBytes(path, csv);
  Result<std::unique_ptr<CheckpointLog>> not_checkpoint =
      CheckpointLog::Open(path, 11, 22);
  ASSERT_FALSE(not_checkpoint.ok());
  EXPECT_EQ(not_checkpoint.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ReadFileBytes(path), csv);
  // The exact same fingerprints still open.
  WriteFileBytes(path, bytes);
  EXPECT_TRUE(CheckpointLog::Open(path, 11, 22).ok());
}

// The v1 sweep-checkpoint bytes (docs/FORMATS.md). Files written before a
// change to the writer must still resume after it, so this literal only
// changes together with the header version.
TEST(CheckpointLogTest, WritesAndReadsGoldenV1Bytes) {
  const std::string golden =
      "secreta-checkpoint\tv1\t000000000000000b\t0000000000000016\n"
      "point\t0000000000000064\t0x1p+1\t"
      // The 13 metrics, gcp first.
      "0x1.5555555555555p-2\t0x0p+0\t0x0p+0\t0x0p+0\t0x0p+0\t0x0p+0\t"
      "0x0p+0\t0x0p+0\t0x0p+0\t0x1.1p+4\t0x1.8p+0\t0x0p+0\t0x0p+0\t"
      // Clusters, guarantee, degradation, phases.
      "9\t4\t5\t1\t0\tk%095%25\t0\tshed: ARE\t"
      "2\trelational\t0x1p-1\ttransaction\t0x1p-2\n";
  std::string path = TempPath("checkpoint_golden.txt");
  std::remove(path.c_str());
  EvaluationReport report;
  report.gcp = 1.0 / 3.0;
  report.suppressed = 17;
  report.run.runtime_seconds = 1.5;
  report.run.initial_clusters = 9;
  report.run.final_clusters = 4;
  report.run.merges = 5;
  report.run.phases.Add("relational", 0.5);
  report.run.phases.Add("transaction", 0.25);
  report.guarantee_checked = true;
  report.guarantee_name = "k\t5%";
  report.degraded_detail = "shed: ARE";
  {
    ASSERT_OK_AND_ASSIGN(auto log, CheckpointLog::Open(path, 11, 22));
    ASSERT_OK(log->Append(100, 2.0, report));
  }
  EXPECT_EQ(ReadFileBytes(path), golden);

  WriteFileBytes(path, golden);
  ASSERT_OK_AND_ASSIGN(auto log, CheckpointLog::Open(path, 11, 22));
  EXPECT_EQ(log->loaded(), 1u);
  EvaluationReport restored;
  double value = 0;
  ASSERT_TRUE(log->Find(100, &restored, &value));
  EXPECT_EQ(value, 2.0);
  EXPECT_EQ(restored.gcp, 1.0 / 3.0);
  EXPECT_EQ(restored.suppressed, 17);
  EXPECT_EQ(restored.run.runtime_seconds, 1.5);
  EXPECT_EQ(restored.run.initial_clusters, 9u);
  EXPECT_EQ(restored.run.final_clusters, 4u);
  EXPECT_EQ(restored.run.merges, 5u);
  EXPECT_EQ(restored.run.phases.phases(), report.run.phases.phases());
  EXPECT_TRUE(restored.guarantee_checked);
  EXPECT_FALSE(restored.guarantee_ok);
  EXPECT_EQ(restored.guarantee_name, "k\t5%");
  EXPECT_FALSE(restored.degraded);
  EXPECT_EQ(restored.degraded_detail, "shed: ARE");
}

TEST(CheckpointLogTest, DropsCorruptTrailingRecord) {
  std::string path = TempPath("checkpoint_corrupt.txt");
  std::remove(path.c_str());
  {
    ASSERT_OK_AND_ASSIGN(auto log, CheckpointLog::Open(path, 1, 2));
    ASSERT_OK(log->Append(1, 2.0, MakeReport()));
    ASSERT_OK(log->Append(0xff, 4.0, MakeReport()));
  }
  const std::string bytes = ReadFileBytes(path);
  const size_t second = bytes.find("point\t00000000000000ff");
  ASSERT_NE(second, std::string::npos);
  const std::string first = bytes.substr(0, second);
  // One phase whose count, doubled, wraps to the field count.
  std::string overflow = bytes.substr(second);
  overflow = overflow.substr(0, overflow.rfind("\t2\trelational")) +
             "\t9223372036854775809\trelational\t0x1p-1\n";
  // A process killed mid-append leaves a truncated line; killed one byte
  // later, a whole record without its newline. Both are torn and cut off,
  // like a record that is whole but corrupt.
  for (const std::string& torn :
       {std::string("point\t00000000000000ff\t0x1p+1\ttrunc"),
        bytes.substr(second, bytes.size() - second - 1), overflow}) {
    WriteFileBytes(path, first + torn);
    ASSERT_OK_AND_ASSIGN(auto log, CheckpointLog::Open(path, 1, 2));
    EXPECT_EQ(log->loaded(), 1u);
    EvaluationReport report;
    EXPECT_TRUE(log->Find(1, &report));
    EXPECT_FALSE(log->Find(0xff, &report));
    EXPECT_EQ(ReadFileBytes(path), first);
  }
}

TEST(CheckpointLogTest, AppendAfterTornTailSurvivesReopen) {
  std::string path = TempPath("checkpoint_torn_append.txt");
  std::remove(path.c_str());
  {
    ASSERT_OK_AND_ASSIGN(auto log, CheckpointLog::Open(path, 1, 2));
    ASSERT_OK(log->Append(1, 2.0, MakeReport()));
  }
  WriteFileBytes(path, ReadFileBytes(path) +
                           "point\t00000000000000ff\t0x1p+1\ttrunc");
  {
    // The resume after the first crash.
    ASSERT_OK_AND_ASSIGN(auto log, CheckpointLog::Open(path, 1, 2));
    EXPECT_EQ(log->loaded(), 1u);
    ASSERT_OK(log->Append(2, 4.0, MakeReport()));
    ASSERT_OK(log->Append(3, 6.0, MakeReport()));
  }
  // The resume after a second crash still sees everything written.
  ASSERT_OK_AND_ASSIGN(auto log, CheckpointLog::Open(path, 1, 2));
  EXPECT_EQ(log->loaded(), 3u);
  EvaluationReport report;
  double value = 0;
  for (uint64_t key : {1, 2, 3}) {
    ASSERT_TRUE(log->Find(key, &report, &value)) << key;
    EXPECT_EQ(value, 2.0 * static_cast<double>(key));
  }
  EXPECT_FALSE(log->Find(0xff, &report));
}

TEST(CheckpointLogTest, PointKeySeparatesGridCells) {
  AlgorithmConfig a;
  a.mode = AnonMode::kRelational;
  a.relational_algorithm = "Cluster";
  AlgorithmConfig b = a;
  b.params.k = a.params.k + 1;
  uint64_t base = CheckpointLog::PointKey(a, 1, 2, 0);
  EXPECT_NE(base, CheckpointLog::PointKey(b, 1, 2, 0));   // different config
  EXPECT_NE(base, CheckpointLog::PointKey(a, 9, 2, 0));   // different dataset
  EXPECT_NE(base, CheckpointLog::PointKey(a, 1, 9, 0));   // different workload
  EXPECT_NE(base, CheckpointLog::PointKey(a, 1, 2, 1));   // different cell
  EXPECT_EQ(base, CheckpointLog::PointKey(a, 1, 2, 0));   // deterministic
}

// ---------------------------------------------------------------------------
// Sweep and comparison resume: a run killed after >= 1 completed point must
// resume to a result byte-identical (timings normalized) to a clean run.

void NormalizeTimings(EvaluationReport* report) {
  report->run.runtime_seconds = 0;
  report->evaluation_seconds = 0;
  report->queries_per_second = 0;
  PhaseTimer cleaned;
  for (const auto& [name, seconds] : report->run.phases.phases()) {
    (void)seconds;
    cleaned.Add(name, 0.0);
  }
  report->run.phases = cleaned;
}

void NormalizeSweep(SweepResult* result) {
  for (SweepPoint& point : result->points) NormalizeTimings(&point.report);
}

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = testing::SmallRtDataset(160, 23);
    hierarchies_ = std::move(BuildAllColumnHierarchies(dataset_)).ValueOrDie();
    item_hierarchy_ = std::move(BuildItemHierarchy(dataset_)).ValueOrDie();
    rel_context_.emplace(std::move(
        RelationalContext::Create(dataset_, hierarchies_)).ValueOrDie());
    txn_context_.emplace(std::move(
        TransactionContext::Create(dataset_, &item_hierarchy_)).ValueOrDie());
    inputs_.dataset = &dataset_;
    inputs_.relational = &*rel_context_;
    inputs_.transaction = &*txn_context_;
    WorkloadGenOptions options;
    options.num_queries = 12;
    workload_ = std::move(GenerateWorkload(dataset_, options)).ValueOrDie();
    config_.mode = AnonMode::kRelational;
    config_.relational_algorithm = "Cluster";
    sweep_.parameter = "k";
    sweep_.start = 2;
    sweep_.end = 6;
    sweep_.step = 2;
  }

  Dataset dataset_;
  std::vector<Hierarchy> hierarchies_;
  Hierarchy item_hierarchy_;
  std::optional<RelationalContext> rel_context_;
  std::optional<TransactionContext> txn_context_;
  EngineInputs inputs_;
  Workload workload_;
  AlgorithmConfig config_;
  ParamSweep sweep_;
};

TEST_F(ResumeTest, SweepResumesByteIdenticallyAfterCancellation) {
  // Clean reference run, no checkpoint.
  ASSERT_OK_AND_ASSIGN(SweepResult clean,
                       RunSweep(inputs_, config_, sweep_, &workload_));
  ASSERT_EQ(clean.points.size(), 3u);

  std::string path = TempPath("sweep_resume.txt");
  std::remove(path.c_str());

  // "Crash" after the first completed point: the progress callback cancels
  // the run, as if the process had been killed between points.
  CancellationToken token;
  EngineInputs cancellable = inputs_;
  cancellable.cancel = &token;
  {
    ASSERT_OK_AND_ASSIGN(
        auto checkpoint, OpenCheckpointForRun(path, inputs_, &workload_));
    ProgressCallback kill_after_first = [&](const ProgressEvent& event) {
      if (event.point_index == 0) token.Cancel();
    };
    Result<SweepResult> partial =
        RunSweep(cancellable, config_, sweep_, &workload_, kill_after_first,
                 0, nullptr, checkpoint.get());
    ASSERT_FALSE(partial.ok());
    EXPECT_EQ(partial.status().code(), StatusCode::kCancelled);
    EXPECT_GE(checkpoint->appended(), 1u);
  }

  // Resume against the same file: recorded points replay, the rest compute.
  size_t restored = 0;
  ASSERT_OK_AND_ASSIGN(
      auto checkpoint, OpenCheckpointForRun(path, inputs_, &workload_));
  EXPECT_GE(checkpoint->loaded(), 1u);
  ProgressCallback count_restored = [&](const ProgressEvent& event) {
    if (event.from_checkpoint) ++restored;
  };
  ASSERT_OK_AND_ASSIGN(
      SweepResult resumed,
      RunSweep(inputs_, config_, sweep_, &workload_, count_restored, 0,
               nullptr, checkpoint.get()));
  EXPECT_GE(restored, 1u);
  ASSERT_EQ(resumed.points.size(), clean.points.size());

  // Byte-identical modulo wall-clock timings, which no two runs share.
  NormalizeSweep(&clean);
  NormalizeSweep(&resumed);
  EXPECT_EQ(SweepResultToJson(resumed), SweepResultToJson(clean));
}

TEST_F(ResumeTest, SecondResumeRunsEntirelyFromCheckpoint) {
  std::string path = TempPath("sweep_resume_full.txt");
  std::remove(path.c_str());
  {
    ASSERT_OK_AND_ASSIGN(
        auto checkpoint, OpenCheckpointForRun(path, inputs_, &workload_));
    ASSERT_OK(RunSweep(inputs_, config_, sweep_, &workload_, nullptr, 0,
                       nullptr, checkpoint.get())
                  .status());
    EXPECT_EQ(checkpoint->appended(), 3u);
  }
  size_t restored = 0;
  ASSERT_OK_AND_ASSIGN(
      auto checkpoint, OpenCheckpointForRun(path, inputs_, &workload_));
  EXPECT_EQ(checkpoint->loaded(), 3u);
  ProgressCallback count = [&](const ProgressEvent& event) {
    if (event.from_checkpoint) ++restored;
  };
  ASSERT_OK(RunSweep(inputs_, config_, sweep_, &workload_, count, 0, nullptr,
                     checkpoint.get())
                .status());
  EXPECT_EQ(restored, 3u);
  EXPECT_EQ(checkpoint->appended(), 0u);  // nothing recomputed
}

TEST_F(ResumeTest, ComparisonGridResumesByteIdentically) {
  std::vector<AlgorithmConfig> configs;
  configs.push_back(config_);
  AlgorithmConfig second = config_;
  second.relational_algorithm = "Incognito";
  configs.push_back(second);

  CompareOptions clean_options;
  clean_options.num_threads = 2;
  ASSERT_OK_AND_ASSIGN(
      std::vector<SweepResult> clean,
      CompareMethods(inputs_, configs, sweep_, &workload_, clean_options));

  std::string path = TempPath("compare_resume.txt");
  std::remove(path.c_str());

  CancellationToken token;
  EngineInputs cancellable = inputs_;
  cancellable.cancel = &token;
  CompareOptions crash_options;
  crash_options.num_threads = 2;
  crash_options.checkpoint_path = path;
  crash_options.progress = [&](const ProgressEvent& event) {
    (void)event;
    token.Cancel();  // "crash" as soon as any cell completes
  };
  Result<std::vector<SweepResult>> partial =
      CompareMethods(cancellable, configs, sweep_, &workload_, crash_options);
  ASSERT_FALSE(partial.ok());
  EXPECT_EQ(partial.status().code(), StatusCode::kCancelled);

  size_t restored = 0;
  CompareOptions resume_options;
  resume_options.num_threads = 2;
  resume_options.checkpoint_path = path;
  resume_options.progress = [&](const ProgressEvent& event) {
    if (event.from_checkpoint) ++restored;
  };
  ASSERT_OK_AND_ASSIGN(
      std::vector<SweepResult> resumed,
      CompareMethods(inputs_, configs, sweep_, &workload_, resume_options));
  EXPECT_GE(restored, 1u);
  ASSERT_EQ(resumed.size(), clean.size());
  for (SweepResult& result : clean) NormalizeSweep(&result);
  for (SweepResult& result : resumed) NormalizeSweep(&result);
  EXPECT_EQ(ComparisonToJson(resumed), ComparisonToJson(clean));
}

// ---------------------------------------------------------------------------
// Job retry with exponential backoff.

JobScheduler::JobFn FlakyFn(std::shared_ptr<std::atomic<int>> calls,
                            int failures_before_success) {
  return [calls, failures_before_success](
             const CancellationToken& token) -> Result<EvaluationReport> {
    if (token.cancelled()) return Status::Cancelled("job cancelled");
    int attempt = calls->fetch_add(1) + 1;
    if (attempt <= failures_before_success) {
      return Status::ResourceExhausted("transient overload");
    }
    return EvaluationReport{};
  };
}

TEST(RetryTest, TransientFailuresRetryUntilSuccess) {
  JobScheduler scheduler;
  auto calls = std::make_shared<std::atomic<int>>(0);
  JobOptions options;
  options.max_retries = 3;
  options.retry_initial_backoff_seconds = 0.005;
  options.retry_max_backoff_seconds = 0.02;
  ASSERT_OK_AND_ASSIGN(uint64_t id,
                       scheduler.SubmitFn(FlakyFn(calls, 2), "flaky", options));
  ASSERT_OK_AND_ASSIGN(JobInfo info, scheduler.WaitJob(id));
  EXPECT_EQ(info.state, JobState::kDone);
  EXPECT_OK(info.status);
  EXPECT_EQ(info.attempts, 3);
  EXPECT_EQ(calls->load(), 3);
}

TEST(RetryTest, ExhaustedRetriesFail) {
  JobScheduler scheduler;
  auto calls = std::make_shared<std::atomic<int>>(0);
  JobOptions options;
  options.max_retries = 2;
  options.retry_initial_backoff_seconds = 0.002;
  options.retry_max_backoff_seconds = 0.01;
  ASSERT_OK_AND_ASSIGN(
      uint64_t id, scheduler.SubmitFn(FlakyFn(calls, 100), "doomed", options));
  ASSERT_OK_AND_ASSIGN(JobInfo info, scheduler.WaitJob(id));
  EXPECT_EQ(info.state, JobState::kFailed);
  EXPECT_EQ(info.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(info.attempts, 3);  // initial + 2 retries
}

TEST(RetryTest, NonRetryableErrorsFailFast) {
  JobScheduler scheduler;
  JobOptions options;
  options.max_retries = 3;
  ASSERT_OK_AND_ASSIGN(
      uint64_t id,
      scheduler.SubmitFn(
          [](const CancellationToken&) -> Result<EvaluationReport> {
            return Status::Internal("logic bug, not a transient");
          },
          "broken", options));
  ASSERT_OK_AND_ASSIGN(JobInfo info, scheduler.WaitJob(id));
  EXPECT_EQ(info.state, JobState::kFailed);
  EXPECT_EQ(info.status.code(), StatusCode::kInternal);
  EXPECT_EQ(info.attempts, 1);
}

TEST(RetryTest, ZeroRetriesIsFailFast) {
  JobScheduler scheduler;
  auto calls = std::make_shared<std::atomic<int>>(0);
  ASSERT_OK_AND_ASSIGN(uint64_t id,
                       scheduler.SubmitFn(FlakyFn(calls, 100), "no-retries"));
  ASSERT_OK_AND_ASSIGN(JobInfo info, scheduler.WaitJob(id));
  EXPECT_EQ(info.state, JobState::kFailed);
  EXPECT_EQ(info.attempts, 1);
}

TEST(RetryTest, BackoffBeyondDeadlineGivesUpAsTimeout) {
  JobScheduler scheduler;
  auto calls = std::make_shared<std::atomic<int>>(0);
  JobOptions options;
  options.max_retries = 5;
  options.timeout_seconds = 0.25;
  // The first backoff (>= 0.85 * 10s) dwarfs the deadline: the scheduler
  // must give up immediately instead of parking the job past its deadline.
  options.retry_initial_backoff_seconds = 10.0;
  options.retry_max_backoff_seconds = 10.0;
  ASSERT_OK_AND_ASSIGN(
      uint64_t id,
      scheduler.SubmitFn(FlakyFn(calls, 100), "deadline-bound", options));
  ASSERT_OK_AND_ASSIGN(JobInfo info, scheduler.WaitJob(id));
  EXPECT_EQ(info.state, JobState::kTimedOut);
  EXPECT_EQ(info.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(info.attempts, 1);
}

TEST(RetryTest, RetriedJobsCountAsQueuedWhileParked) {
  SchedulerOptions scheduler_options;
  scheduler_options.num_workers = 1;
  JobScheduler scheduler(scheduler_options);
  auto calls = std::make_shared<std::atomic<int>>(0);
  JobOptions options;
  options.max_retries = 1;
  options.retry_initial_backoff_seconds = 0.2;
  options.retry_max_backoff_seconds = 0.2;
  ASSERT_OK_AND_ASSIGN(uint64_t id,
                       scheduler.SubmitFn(FlakyFn(calls, 1), "parked", options));
  // Wait until the first attempt failed and the job is parked in backoff.
  while (calls->load() < 1 || scheduler.num_running() > 0) {
    std::this_thread::yield();
  }
  EXPECT_GE(scheduler.num_queued(), 1u);  // parked retries are still queued
  ASSERT_OK_AND_ASSIGN(JobInfo info, scheduler.WaitJob(id));
  EXPECT_EQ(info.state, JobState::kDone);
  EXPECT_EQ(info.attempts, 2);
  // WaitAll must also cover parked retries (nothing left afterwards).
  scheduler.WaitAll();
  EXPECT_EQ(scheduler.num_queued(), 0u);
}

// Cancellation racing the retry re-queue: jobs bounce between running,
// parked-in-backoff and queued while CancelJob fires at random moments.
// Primarily a TSan target; in any build it must leave every job terminal.
TEST(RetryStressTest, CancelRacesRetryRequeue) {
  SchedulerOptions scheduler_options;
  scheduler_options.num_workers = 4;
  scheduler_options.max_queue = 64;
  JobScheduler scheduler(scheduler_options);
  constexpr int kJobs = 16;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kJobs; ++i) {
    auto calls = std::make_shared<std::atomic<int>>(0);
    JobOptions options;
    options.max_retries = 3;
    options.retry_initial_backoff_seconds = 0.001 + 0.001 * (i % 4);
    options.retry_max_backoff_seconds = 0.01;
    ASSERT_OK_AND_ASSIGN(
        uint64_t id,
        scheduler.SubmitFn(FlakyFn(calls, 1 + i % 3),
                           StrFormat("stress-%d", i), options));
    ids.push_back(id);
  }
  // Cancel every other job while the retries are in flight.
  for (size_t i = 0; i < ids.size(); i += 2) {
    (void)scheduler.CancelJob(ids[i]);  // may already be terminal: fine
  }
  scheduler.WaitAll();
  for (uint64_t id : ids) {
    ASSERT_OK_AND_ASSIGN(JobInfo info, scheduler.GetJob(id));
    EXPECT_TRUE(IsTerminalJobState(info.state))
        << "job " << id << " stuck in " << JobStateToString(info.state);
  }
}

// ---------------------------------------------------------------------------
// Memory budget + graceful degradation.

TEST(MemoryBudgetTest, ChargesAndReleases) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryCharge(600));
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_FALSE(budget.TryCharge(500));  // over the limit: rejected
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_EQ(budget.rejected(), 1u);
  EXPECT_TRUE(budget.TryCharge(400));
  budget.Release(600);
  EXPECT_EQ(budget.used(), 400u);
  EXPECT_EQ(budget.limit(), 1000u);
}

TEST(MemoryBudgetTest, ScopedChargeReleasesOnDestruction) {
  MemoryBudget budget(100);
  {
    ScopedCharge charge(&budget, 80);
    EXPECT_TRUE(charge.acquired());
    EXPECT_EQ(budget.used(), 80u);
    ScopedCharge too_big(&budget, 50);
    EXPECT_FALSE(too_big.acquired());
    ScopedCharge moved = std::move(charge);
    EXPECT_TRUE(moved.acquired());
    EXPECT_EQ(budget.used(), 80u);  // moved, not double-charged
  }
  EXPECT_EQ(budget.used(), 0u);
  // No budget attached: trivially acquired, no accounting.
  ScopedCharge unbudgeted(nullptr, 1 << 30);
  EXPECT_TRUE(unbudgeted.acquired());
}

class DegradationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = testing::SmallRtDataset(150, 37);
    hierarchies_ = std::move(BuildAllColumnHierarchies(dataset_)).ValueOrDie();
    item_hierarchy_ = std::move(BuildItemHierarchy(dataset_)).ValueOrDie();
    rel_context_.emplace(std::move(
        RelationalContext::Create(dataset_, hierarchies_)).ValueOrDie());
    txn_context_.emplace(std::move(
        TransactionContext::Create(dataset_, &item_hierarchy_)).ValueOrDie());
    inputs_.dataset = &dataset_;
    inputs_.relational = &*rel_context_;
    inputs_.transaction = &*txn_context_;
    WorkloadGenOptions options;
    options.num_queries = 10;
    workload_ = std::move(GenerateWorkload(dataset_, options)).ValueOrDie();
  }

  AlgorithmConfig RtConfig() const {
    AlgorithmConfig config;
    config.mode = AnonMode::kRt;
    config.relational_algorithm = "Cluster";
    config.transaction_algorithm = "Apriori";
    config.params.k = 4;
    config.params.m = 2;
    return config;
  }

  Dataset dataset_;
  std::vector<Hierarchy> hierarchies_;
  Hierarchy item_hierarchy_;
  std::optional<RelationalContext> rel_context_;
  std::optional<TransactionContext> txn_context_;
  EngineInputs inputs_;
  Workload workload_;
};

TEST_F(DegradationTest, TinyBudgetShedsOptionalWorkButSucceeds) {
  MemoryBudget budget(64);  // nothing optional fits
  inputs_.memory = &budget;
  ASSERT_OK_AND_ASSIGN(EvaluationReport report,
                       EvaluateMethod(inputs_, RtConfig(), &workload_));
  EXPECT_TRUE(report.degraded);
  EXPECT_NE(report.degraded_detail.find("ARE query workload"),
            std::string::npos)
      << report.degraded_detail;
  EXPECT_EQ(report.are, 0.0);  // shed, reported as 0
  EXPECT_GT(report.gcp, 0.0);  // core metrics always run
  EXPECT_GT(report.discernibility, 0.0);
  EXPECT_TRUE(report.guarantee_checked);
  ASSERT_OK_AND_ASSIGN(double degraded_metric, report.Metric("degraded"));
  EXPECT_EQ(degraded_metric, 1.0);
  EXPECT_GT(budget.rejected(), 0u);
}

TEST_F(DegradationTest, NoBudgetMeansNoDegradation) {
  ASSERT_OK_AND_ASSIGN(EvaluationReport report,
                       EvaluateMethod(inputs_, RtConfig(), &workload_));
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.degraded_detail.empty());
  EXPECT_GT(report.are, 0.0);
  EXPECT_GT(report.ul, 0.0);
}

TEST_F(DegradationTest, GenerousBudgetComputesEverything) {
  MemoryBudget budget(size_t{1} << 30);  // 1 GiB: everything fits
  inputs_.memory = &budget;
  ASSERT_OK_AND_ASSIGN(EvaluationReport report,
                       EvaluateMethod(inputs_, RtConfig(), &workload_));
  EXPECT_FALSE(report.degraded);
  EXPECT_GT(report.are, 0.0);
  EXPECT_EQ(budget.rejected(), 0u);
  EXPECT_EQ(budget.used(), 0u);  // all charges released after the run
}

// The degraded flag must survive a checkpoint round-trip and the JSON export
// (the report consumer's only signal that metrics were shed).
TEST_F(DegradationTest, DegradedFlagReachesJsonExport) {
  MemoryBudget budget(64);
  inputs_.memory = &budget;
  ASSERT_OK_AND_ASSIGN(EvaluationReport report,
                       EvaluateMethod(inputs_, RtConfig(), &workload_));
  std::string json = EvaluationReportToJson(report);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("ARE query workload"), std::string::npos);
}

}  // namespace
}  // namespace secreta
