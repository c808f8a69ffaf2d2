// shard_run: out-of-core anonymization from an SBC1 file. One op is a
// checkpointed RunShardedAnonymization (relational full-domain Incognito,
// release written, materialization off) followed by a resume from the
// finished checkpoint. With a cheap full-domain algorithm the data format,
// checkpoint and merge/release write are a large share of the op, which is
// what this workload exists to measure; compare_grid already covers the
// expensive algorithms.

#include <cstdio>
#include <memory>

#include "data/column_provider.h"
#include "data/format.h"
#include "datagen/synthetic.h"
#include "engine/sharded_runner.h"
#include "harness/common.h"
#include "harness/subcommands.h"

namespace perfbench {
namespace {

using namespace secreta;

constexpr size_t kShards = 32;

AlgorithmConfig ShardConfig() {
  AlgorithmConfig config;
  config.mode = AnonMode::kRelational;
  config.relational_algorithm = "Incognito";
  config.params.k = 5;
  return config;
}

ShardedRunOptions RunOptions(const std::string& dir) {
  ShardedRunOptions options;
  options.checkpoint_path = dir + "/shard.ckpt";
  options.output_path = dir + "/release.csv";
  options.materialize_result = false;
  options.audit = false;
  return options;
}

}  // namespace

int ShardConvert(const Flags& flags) {
  SyntheticOptions gen;  // the bench_util dataset shape
  gen.num_records = static_cast<size_t>(flags.Int("records"));
  gen.seed = static_cast<uint64_t>(flags.Int("seed"));
  Dataset dataset = Check(GenerateRtDataset(gen), "generate dataset");
  BinaryWriteOptions options;
  options.shard_kind = ShardKind::kRange;
  options.num_shards = kShards;
  std::vector<double> convert_s, convert_steal;
  for (int64_t i = 0; i < flags.Int("repeats"); ++i) {
    const HostTimes host_start = ReadHostTimes();
    const double start = Now();
    Check(WriteBinaryDataset(dataset, flags.Str("out"), options), "convert");
    convert_s.push_back(Now() - start);
    convert_steal.push_back(StealShare(host_start, ReadHostTimes()));
  }
  Report report;
  report.Nums("convert_s", convert_s);
  report.Nums("convert_steal", convert_steal);
  report.Int("records", static_cast<int64_t>(dataset.num_records()));
  report.Str("content_fingerprint", Hex(DatasetContentFingerprint(dataset)));
  report.Print();
  return 0;
}

int Shard(const Flags& flags) {
  const std::string sbc = flags.Str("sbc");
  const std::string dir = flags.Str("dir");
  const int64_t ops = flags.Int("ops");
  const bool trace = flags.Int("trace") != 0;
  Tracer tracer(trace);

  // Set-up: opening the file. Repeated so the median is steady; the last
  // provider serves the ops.
  std::vector<double> open_s;
  std::unique_ptr<ColumnProvider> provider;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(&tracer, "OpenBinaryProvider", "data", -1);
    const double start = Now();
    provider = Check(OpenBinaryProvider(sbc), "open sbc1");
    open_s.push_back(Now() - start);
  }
  const AlgorithmConfig config = ShardConfig();
  const ShardedRunOptions options = RunOptions(dir);

  std::vector<double> op_s, op_steal, run_s, resume_s, shards_s;
  std::vector<double> traced_op_s, untraced_op_s;
  double checkpoint_mb = 0, release_mb = 0;
  int64_t attempted = 0, failed = 0;
  std::string fingerprint;
  size_t shards = 0;
  const Usage usage_start = SelfUsage();
  for (int64_t op = 0; op < ops; ++op) {
    const bool traced = trace && op % 2 == 0;
    Tracer off(false);
    Tracer* t = traced ? &tracer : &off;
    std::remove(options.checkpoint_path.c_str());
    std::remove(options.output_path.c_str());
    ++attempted;

    const HostTimes host_start = ReadHostTimes();
    const double op_start = Now();
    const int root = t->Begin("op", "bench", op);
    const int run_span =
        t->Begin("RunShardedAnonymization", "engine", op, root);
    Result<ShardedRunResult> run =
        RunShardedAnonymization(*provider, config, options);
    t->End(run_span);
    const double run_end = Now();
    const int resume_span =
        t->Begin("RunShardedAnonymization(resume)", "robust", op, root);
    Result<ShardedRunResult> resume =
        RunShardedAnonymization(*provider, config, options);
    t->End(resume_span);
    const double op_end = Now();
    t->End(root);

    if (!run.ok() || !resume.ok()) {
      std::fprintf(stderr, "op %lld: %s\n", static_cast<long long>(op),
                   (run.ok() ? resume.status() : run.status())
                       .ToString()
                       .c_str());
      ++failed;
      break;
    }
    shards = run->plan.num_shards();
    const std::string run_fp = Hex(run->release_fingerprint);
    if (fingerprint.empty()) fingerprint = run_fp;
    // The resume must replay every shard and reproduce the release.
    const bool ok = run->resumed_shards == 0 && shards == kShards &&
                    run->num_records == provider->num_records() &&
                    resume->resumed_shards == shards &&
                    resume->release_fingerprint == run->release_fingerprint &&
                    run_fp == fingerprint;
    if (!ok) {
      std::fprintf(stderr,
                   "op %lld: shards %zu resumed %zu/%zu fingerprint %s/%s\n",
                   static_cast<long long>(op), shards,
                   resume->resumed_shards, shards, run_fp.c_str(),
                   Hex(resume->release_fingerprint).c_str());
      ++failed;
    }

    // Shards run one after another inside the run; the API returns their
    // durations, not their start times, so they are laid end to end from
    // the run's start. What the run span keeps is merge + checkpoint.
    double anonymize = 0;
    for (const ShardRunStats& stats : run->shards) {
      t->Add("shard " + std::to_string(stats.shard), "algo",
             op_start + anonymize, op_start + anonymize + stats.seconds, op,
             run_span);
      anonymize += stats.seconds;
    }
    op_s.push_back(op_end - op_start);
    op_steal.push_back(StealShare(host_start, ReadHostTimes()));
    run_s.push_back(run_end - op_start);
    resume_s.push_back(op_end - run_end);
    shards_s.push_back(anonymize);
    (traced ? traced_op_s : untraced_op_s).push_back(op_end - op_start);
    checkpoint_mb = FileMb(options.checkpoint_path);
    release_mb = FileMb(options.output_path);
  }
  const Usage usage_end = SelfUsage();

  Report report;
  report.Nums("open_s", open_s);
  report.Int("attempted", attempted);
  report.Int("failed", failed);
  report.Int("records", static_cast<int64_t>(provider->num_records()));
  report.Int("shards", static_cast<int64_t>(shards));
  report.Str("release_fingerprint", fingerprint);
  report.Nums("op_s", op_s);
  report.Nums("op_steal", op_steal);
  report.Nums("run_s", run_s);
  report.Nums("resume_s", resume_s);
  report.Nums("shards_s", shards_s);
  report.Num("cpu_s", usage_end.cpu_s - usage_start.cpu_s);
  report.Int("involuntary_switches", usage_end.involuntary_switches -
                                         usage_start.involuntary_switches);
  report.Num("peak_rss_mb", usage_end.peak_rss_mb);
  if (trace) {
    report.Num("engine.shards_s", Median(shards_s));
    std::vector<double> merge_s;
    for (size_t i = 0; i < run_s.size(); ++i) {
      merge_s.push_back(run_s[i] - shards_s[i]);
    }
    report.Num("engine.shard_merge_s", Median(merge_s));
    report.Num("robust.resume_s", Median(resume_s));
    report.Num("robust.checkpoint_mb", checkpoint_mb);
    report.Num("engine.release_mb", release_mb);
    // Shard decoding happens inside the run; decode every shard once more
    // here, after the ops, to time the data layer on its own.
    const ShardPlan plan = *provider->native_plan();
    double materialize = 0;
    for (size_t s = 0; s < plan.num_shards(); ++s) {
      ScopedSpan span(&tracer, "MaterializeShard", "data", -1);
      const double shard_start = Now();
      Check(provider->MaterializeShard(plan, s), "materialize shard");
      materialize += Now() - shard_start;
    }
    report.Num("data.materialize_s", materialize);
    report.Nums("traced_op_s", traced_op_s);
    report.Nums("untraced_op_s", untraced_op_s);
    report.Map("self_s", tracer.SelfSecondsByLayer());
    tracer.WriteChromeTrace(flags.Str("trace-out"));
  }
  report.Print();
  return 0;
}

int ShardAudit(const Flags& flags) {
  // Replays the finished checkpoint with materialization on and audits the
  // merged release with core/audit, outside the measured process.
  std::unique_ptr<ColumnProvider> provider =
      Check(OpenBinaryProvider(flags.Str("sbc")), "open sbc1");
  ShardedRunOptions options = RunOptions(flags.Str("dir"));
  options.output_path.clear();
  options.materialize_result = true;
  options.audit = true;
  ShardedRunResult result = Check(
      RunShardedAnonymization(*provider, ShardConfig(), options), "audit run");
  Report report;
  report.Str("release_fingerprint", Hex(result.release_fingerprint));
  report.Int("resumed_shards", static_cast<int64_t>(result.resumed_shards));
  report.Int("shards", static_cast<int64_t>(result.plan.num_shards()));
  report.Bool("k_anonymous", result.audit.has_value() &&
                                 result.audit->k_anonymous);
  report.Int("min_class_size",
             result.audit ? static_cast<int64_t>(result.audit->min_class_size)
                          : 0);
  report.Print();
  return 0;
}

}  // namespace perfbench
