// EVALB — the evaluation-pipeline benchmark: the scan oracle (tests/oracle)
// vs the indexed (Create + BindWorkload, then BuildRecodingCache + Are)
// path, serial vs parallel, and the serial vs parallel full-report fan-out.
// Emits BENCH_evaluator.json (CWD) with every number.
//
// Default ("full") mode runs the acceptance configuration — 100k records,
// 1000 queries — and exits nonzero unless the indexed+parallel ARE path is
// at least 5x faster than the scan path. `--quick` shrinks the sizes for CI
// smoke runs (no speedup requirement: tiny inputs don't amortize threads).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/guarantees.h"
#include "core/recoding.h"
#include "datagen/synthetic.h"
#include "engine/evaluator.h"
#include "export/json_export.h"
#include "hierarchy/hierarchy_builder.h"
#include "metrics/distribution_metrics.h"
#include "metrics/frequency.h"
#include "metrics/information_loss.h"
#include "obs/trace.h"
#include "query/query_evaluator.h"
#include "query/workload_generator.h"
#include "tests/oracle/are_oracle.h"

using namespace secreta;

namespace {

// Pair-groups the item domain into a global TransactionRecoding — a cheap
// stand-in for an anonymizer output (running one at 100k records would
// dominate the benchmark).
TransactionRecoding PairGroupedRecoding(const Dataset& ds) {
  TransactionRecoding recoding;
  size_t num_items = ds.item_dictionary().size();
  recoding.item_map.assign(num_items, kSuppressedGen);
  for (size_t start = 0; start < num_items; start += 2) {
    std::vector<ItemId> covers{static_cast<ItemId>(start)};
    if (start + 1 < num_items) covers.push_back(static_cast<ItemId>(start + 1));
    int32_t gen = recoding.AddGen("g" + std::to_string(start), covers);
    for (ItemId item : covers) {
      recoding.item_map[static_cast<size_t>(item)] = gen;
    }
  }
  for (size_t r = 0; r < ds.num_records(); ++r) {
    std::vector<int32_t> rec;
    for (ItemId item : ds.items(r).raw()) {
      rec.push_back(recoding.item_map[static_cast<size_t>(item)]);
    }
    std::sort(rec.begin(), rec.end());
    rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
    recoding.records.push_back(std::move(rec));
  }
  return recoding;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const size_t num_records = quick ? 5000 : 100000;
  const size_t num_queries = quick ? 200 : 1000;
  printf("== EVALB: evaluation pipeline (%zu records, %zu queries, %s) ==\n\n",
         num_records, num_queries, quick ? "quick" : "full");

  SyntheticOptions gen;
  gen.num_records = num_records;
  gen.demographic_skew = 0.6;
  gen.seed = 2014;
  Dataset dataset = bench::CheckOk(GenerateRtDataset(gen), "dataset");
  auto hierarchies =
      bench::CheckOk(BuildAllColumnHierarchies(dataset), "hierarchies");
  RelationalContext rel_ctx =
      bench::CheckOk(RelationalContext::Create(dataset, hierarchies), "context");

  std::vector<int> levels(rel_ctx.num_qi(), 1);
  RelationalRecoding rel = ApplyFullDomainLevels(rel_ctx, levels);
  TransactionRecoding txn = PairGroupedRecoding(dataset);

  WorkloadGenOptions wopt;
  wopt.num_queries = num_queries;
  wopt.relational_clauses = 2;
  wopt.items_per_query = 2;
  wopt.seed = 42;
  Workload workload = bench::CheckOk(GenerateWorkload(dataset, wopt), "workload");

  // --- Exact counts: scan oracle vs indexed bind (includes index build).
  Stopwatch scan_exact_watch;
  std::vector<double> scan_exact;
  scan_exact.reserve(workload.size());
  for (const CountQuery& q : workload.queries()) {
    scan_exact.push_back(
        bench::CheckOk(oracle::ExactCount(dataset, q), "exact"));
  }
  double scan_exact_seconds = scan_exact_watch.ElapsedSeconds();

  Stopwatch bind_watch;
  QueryEvaluator evaluator =
      bench::CheckOk(QueryEvaluator::Create(dataset, &rel_ctx), "evaluator");
  BoundWorkload bound = bench::CheckOk(
      evaluator.BindWorkload(workload, &SharedEvalPool()), "bind");
  double bind_seconds = bind_watch.ElapsedSeconds();
  for (size_t i = 0; i < workload.size(); ++i) {
    if (bound.exact_count(i) != scan_exact[i]) {
      fprintf(stderr, "FAIL: exact-count mismatch at query %zu\n", i);
      return 1;
    }
  }

  // --- ARE: scan path (per-query oracle loop, the pre-index evaluation),
  // indexed serial, indexed parallel. Each indexed region builds its own
  // RecodingCache, as a report does.
  Stopwatch scan_are_watch;
  double scan_total = 0;
  std::vector<double> scan_estimated;
  scan_estimated.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    double est = bench::CheckOk(
        oracle::EstimatedCount(dataset, &rel_ctx, workload.queries()[i], &rel,
                               &txn),
        "est");
    scan_estimated.push_back(est);
    scan_total +=
        std::fabs(scan_exact[i] - est) / std::max(scan_exact[i], 1.0);
  }
  double scan_are = scan_total / static_cast<double>(workload.size());
  double scan_are_seconds = scan_are_watch.ElapsedSeconds() + scan_exact_seconds;

  Stopwatch serial_watch;
  RecodingCache serial_cache =
      bench::CheckOk(evaluator.BuildRecodingCache(&rel, &txn), "serial cache");
  AreReport serial = bench::CheckOk(
      evaluator.Are(bound, &rel, &txn, serial_cache), "serial are");
  double serial_are_seconds = serial_watch.ElapsedSeconds();

  Stopwatch parallel_watch;
  RecodingCache parallel_cache = bench::CheckOk(
      evaluator.BuildRecodingCache(&rel, &txn), "parallel cache");
  AreReport parallel = bench::CheckOk(
      evaluator.Are(bound, &rel, &txn, parallel_cache, &SharedEvalPool()),
      "parallel are");
  double parallel_are_seconds = parallel_watch.ElapsedSeconds();

  if (serial.are != scan_are || parallel.are != scan_are) {
    fprintf(stderr, "FAIL: ARE mismatch scan=%.17g serial=%.17g par=%.17g\n",
            scan_are, serial.are, parallel.are);
    return 1;
  }
  for (size_t i = 0; i < workload.size(); ++i) {
    if (serial.estimated[i] != scan_estimated[i] ||
        parallel.estimated[i] != scan_estimated[i]) {
      fprintf(stderr, "FAIL: estimate mismatch at query %zu\n", i);
      return 1;
    }
  }

  double serial_speedup = scan_are_seconds / serial_are_seconds;
  double parallel_speedup = scan_are_seconds / parallel_are_seconds;
  double bound_parallel_speedup =
      scan_are_seconds / (bind_seconds + parallel_are_seconds);

  // --- Full report: serial metric loop (the pre-pipeline evaluator) vs the
  // parallel BuildReport fan-out over a shared EvalContext.
  EngineInputs inputs;
  inputs.dataset = &dataset;
  inputs.relational = &rel_ctx;
  auto make_run = [&]() {
    RunResult run;
    run.config.mode = AnonMode::kRelational;
    run.config.params.k = 5;
    run.relational = rel;
    run.transaction = txn;
    return run;
  };

  Stopwatch serial_report_watch;
  {
    RunResult run = make_run();
    EvaluationReport report;
    report.gcp = RecodingGcp(rel_ctx, *run.relational);
    EquivalenceClasses classes = GroupByRecoding(*run.relational);
    report.discernibility = Discernibility(classes);
    report.cavg = AverageClassSize(classes, run.config.params.k);
    report.entropy_loss = NonUniformEntropyLoss(rel_ctx, *run.relational);
    report.kl_relational = MeanKlDivergence(rel_ctx, *run.relational);
    std::vector<std::vector<ItemId>> original;
    original.reserve(dataset.num_records());
    for (size_t r = 0; r < dataset.num_records(); ++r) {
      original.push_back(dataset.items(r).raw());
    }
    report.ul = TransactionUl(*run.transaction, original,
                              dataset.item_dictionary().size());
    report.item_freq_error = MeanItemFrequencyError(
        *run.transaction, original, dataset.item_dictionary());
    report.kl_items = ItemKlDivergence(*run.transaction, original,
                                       dataset.item_dictionary().size());
    double total = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
      double exact = bench::CheckOk(
          oracle::ExactCount(dataset, workload.queries()[i]), "exact");
      double est = bench::CheckOk(
          oracle::EstimatedCount(dataset, &rel_ctx, workload.queries()[i],
                                 &*run.relational, &*run.transaction),
          "est");
      total += std::fabs(exact - est) / std::max(exact, 1.0);
    }
    report.are = total / static_cast<double>(workload.size());
    report.guarantee_ok = IsKAnonymous(*run.relational, run.config.params.k);
  }
  double serial_report_seconds = serial_report_watch.ElapsedSeconds();

  EvalContext eval =
      bench::CheckOk(EvalContext::Create(inputs, &workload), "eval context");
  Stopwatch parallel_report_watch;
  EvaluationReport report = bench::CheckOk(
      BuildReport(inputs, make_run(), eval), "parallel report");
  double parallel_report_seconds = parallel_report_watch.ElapsedSeconds();
  if (report.are != scan_are) {
    fprintf(stderr, "FAIL: BuildReport ARE mismatch\n");
    return 1;
  }
  double report_speedup = serial_report_seconds / parallel_report_seconds;

  // --- Tracer overhead on the report path: the span macros are always
  // compiled in, so "disabled" is the production default (a span costs one
  // relaxed atomic load) and "enabled" additionally records every span.
  // Best-of-3 each to damp scheduler noise.
  auto best_report_seconds = [&]() {
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch watch;
      EvaluationReport traced = bench::CheckOk(
          BuildReport(inputs, make_run(), eval), "traced report");
      double seconds = watch.ElapsedSeconds();
      if (traced.are != scan_are) {
        fprintf(stderr, "FAIL: traced BuildReport ARE mismatch\n");
        exit(1);
      }
      if (rep == 0 || seconds < best) best = seconds;
    }
    return best;
  };
  Tracer::Get().Disable();
  double untraced_report_seconds = best_report_seconds();
  Tracer::Get().Reset();
  Tracer::Get().Enable();
  double traced_report_seconds = best_report_seconds();
  size_t traced_spans = Tracer::Get().num_events();
  Tracer::Get().Disable();
  Tracer::Get().Reset();
  double traced_overhead_pct =
      (traced_report_seconds / untraced_report_seconds - 1.0) * 100.0;

  bench::PrintRow({"measurement", "seconds", "speedup vs scan"});
  bench::PrintRule(3);
  bench::PrintRow({"scan exact counts", StrFormat("%.3f", scan_exact_seconds),
                   ""});
  bench::PrintRow({"bind workload (indexed)", StrFormat("%.3f", bind_seconds),
                   ""});
  bench::PrintRow({"scan ARE (exact+est)", StrFormat("%.3f", scan_are_seconds),
                   "1.00x"});
  bench::PrintRow({"indexed ARE serial", StrFormat("%.3f", serial_are_seconds),
                   StrFormat("%.2fx", serial_speedup)});
  bench::PrintRow({"indexed ARE parallel",
                   StrFormat("%.3f", parallel_are_seconds),
                   StrFormat("%.2fx", parallel_speedup)});
  bench::PrintRow({"bind + parallel ARE",
                   StrFormat("%.3f", bind_seconds + parallel_are_seconds),
                   StrFormat("%.2fx", bound_parallel_speedup)});
  bench::PrintRule(3);
  bench::PrintRow({"serial full report",
                   StrFormat("%.3f", serial_report_seconds), "1.00x"});
  bench::PrintRow({"parallel full report",
                   StrFormat("%.3f", parallel_report_seconds),
                   StrFormat("%.2fx", report_speedup)});
  bench::PrintRule(3);
  bench::PrintRow({"report, tracer disabled",
                   StrFormat("%.3f", untraced_report_seconds), ""});
  bench::PrintRow({"report, tracer enabled",
                   StrFormat("%.3f", traced_report_seconds),
                   StrFormat("%+.1f%%", traced_overhead_pct)});
  printf("\nARE = %.6f over %zu queries; parallel throughput %.0f queries/s\n",
         scan_are, workload.size(),
         static_cast<double>(workload.size()) / parallel_are_seconds);
  printf("tracer: %zu spans recorded, enabled overhead %+.1f%%\n",
         traced_spans, traced_overhead_pct);

  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("evaluator");
  w.Key("mode");
  w.String(quick ? "quick" : "full");
  w.Key("num_records");
  w.Int(static_cast<int64_t>(num_records));
  w.Key("num_queries");
  w.Int(static_cast<int64_t>(workload.size()));
  w.Key("are");
  w.Number(scan_are);
  w.Key("scan_exact_seconds");
  w.Number(scan_exact_seconds);
  w.Key("bind_seconds");
  w.Number(bind_seconds);
  w.Key("scan_are_seconds");
  w.Number(scan_are_seconds);
  w.Key("serial_are_seconds");
  w.Number(serial_are_seconds);
  w.Key("parallel_are_seconds");
  w.Number(parallel_are_seconds);
  w.Key("serial_are_speedup");
  w.Number(serial_speedup);
  w.Key("parallel_are_speedup");
  w.Number(parallel_speedup);
  w.Key("bind_plus_parallel_speedup");
  w.Number(bound_parallel_speedup);
  w.Key("serial_report_seconds");
  w.Number(serial_report_seconds);
  w.Key("parallel_report_seconds");
  w.Number(parallel_report_seconds);
  w.Key("report_speedup");
  w.Number(report_speedup);
  w.Key("untraced_report_seconds");
  w.Number(untraced_report_seconds);
  w.Key("traced_report_seconds");
  w.Number(traced_report_seconds);
  w.Key("traced_overhead_pct");
  w.Number(traced_overhead_pct);
  w.Key("traced_spans");
  w.Int(static_cast<int64_t>(traced_spans));
  w.Key("evaluation_seconds");
  w.Number(report.evaluation_seconds);
  w.Key("queries_per_second");
  w.Number(report.queries_per_second);
  w.EndObject();
  const std::string path = "BENCH_evaluator.json";
  bench::CheckOk(csv::WriteFile(path, w.TakeString()), "json");
  printf("wrote %s\n", path.c_str());

  if (!quick && parallel_speedup < 5.0) {
    fprintf(stderr,
            "FAIL: indexed+parallel ARE speedup %.2fx < required 5x\n",
            parallel_speedup);
    return 1;
  }
  return 0;
}
