#include "engine/evaluator.h"

#include <functional>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/guarantees.h"
#include "metrics/distribution_metrics.h"
#include "metrics/frequency.h"
#include "metrics/information_loss.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"

namespace secreta {

Result<double> EvaluationReport::Metric(const std::string& name) const {
  if (name == "gcp") return gcp;
  if (name == "ul") return ul;
  if (name == "are") return are;
  if (name == "discernibility") return discernibility;
  if (name == "cavg") return cavg;
  if (name == "item_freq_error") return item_freq_error;
  if (name == "entropy_loss") return entropy_loss;
  if (name == "kl_relational") return kl_relational;
  if (name == "kl_items") return kl_items;
  if (name == "suppressed") return suppressed;
  if (name == "runtime") return run.runtime_seconds;
  if (name == "evaluation_seconds") return evaluation_seconds;
  if (name == "queries_per_second") return queries_per_second;
  if (name == "degraded") return degraded ? 1.0 : 0.0;
  return Status::InvalidArgument("unknown metric: " + name);
}

Result<EvalContext> EvalContext::Create(const EngineInputs& inputs,
                                        const Workload* workload) {
  EvalContext context;
  if (workload == nullptr || workload->empty()) return context;
  // Graceful degradation: the bound workload (clause bitmaps, per-node
  // overlap caches, exact counts) is the evaluator's largest optional
  // structure. Charge an estimate against the soft budget first and shed
  // ARE entirely — reports then carry the `degraded` flag — rather than
  // binding past the limit.
  size_t records = inputs.dataset->num_records();
  size_t estimate = workload->size() * (records / 8 + 160) + records * 16;
  ScopedCharge charge(inputs.memory, estimate);
  if (!charge.acquired()) {
    context.workload_shed_ = true;
    return context;
  }
  SECRETA_ASSIGN_OR_RETURN(
      QueryEvaluator evaluator,
      QueryEvaluator::Create(*inputs.dataset, inputs.relational));
  context.evaluator_.emplace(std::move(evaluator));
  SECRETA_ASSIGN_OR_RETURN(
      BoundWorkload bound,
      context.evaluator_->BindWorkload(*workload, &SharedEvalPool()));
  context.bound_.emplace(std::move(bound));
  context.charge_ = std::move(charge);
  return context;
}

Result<EvaluationReport> BuildReport(const EngineInputs& inputs,
                                     RunResult run, const EvalContext& eval) {
  SECRETA_RETURN_IF_ERROR(CheckCancelled(inputs.cancel, "metrics phase"));
  SECRETA_FAULT_POINT("evaluate.metrics");
  SECRETA_TRACE_SPAN("evaluate");
  Stopwatch eval_watch;
  EvaluationReport report;
  const Dataset& data = *inputs.dataset;
  const CancellationToken* cancel = inputs.cancel;
  ThreadPool* pool = &SharedEvalPool();

  // Independent metric computations, fanned out over the shared pool. Each
  // task polls the token on entry and writes a distinct report field, so no
  // synchronization beyond the final join is needed.
  std::vector<std::function<Status()>> tasks;
  auto add_task = [&](const char* where, std::function<void()> body) {
    tasks.push_back([where, cancel, body = std::move(body)]() -> Status {
      SECRETA_RETURN_IF_ERROR(CheckCancelled(cancel, where));
      // Spans are named after the task ("evaluate.gcp metric", ...), so a
      // trace shows which metric dominated the fan-out.
      ScopedSpan span(std::string("evaluate.") + where);
      body();
      return Status::OK();
    });
  };

  if (run.relational.has_value()) {
    const RelationalRecoding& recoding = *run.relational;
    add_task("gcp metric",
             [&] { report.gcp = RecodingGcp(*inputs.relational, recoding); });
    add_task("class metrics", [&, k = run.config.params.k] {
      EquivalenceClasses classes = GroupByRecoding(recoding);
      report.discernibility = Discernibility(classes);
      report.cavg = AverageClassSize(classes, k);
    });
    add_task("entropy metric", [&] {
      report.entropy_loss = NonUniformEntropyLoss(*inputs.relational, recoding);
    });
    add_task("kl metric", [&] {
      report.kl_relational = MeanKlDivergence(*inputs.relational, recoding);
    });
  }
  std::vector<std::string> shed;
  std::vector<std::vector<ItemId>> original;
  ScopedCharge original_charge;
  if (run.transaction.has_value()) {
    const TransactionRecoding& recoding = *run.transaction;
    // The distribution metrics need a full copy of the original
    // transactions. Charge it against the soft budget; when it does not fit,
    // shed those metrics (they read 0, the report says so) and keep the
    // cheap ones.
    size_t original_bytes = 0;
    for (size_t r = 0; r < data.num_records(); ++r) {
      original_bytes +=
          data.items(r).raw().size() * sizeof(ItemId) + sizeof(std::vector<ItemId>);
    }
    original_charge = ScopedCharge(inputs.memory, original_bytes);
    if (original_charge.acquired()) {
      original.reserve(data.num_records());
      for (size_t r = 0; r < data.num_records(); ++r) {
        original.push_back(data.items(r).raw());
      }
      add_task("ul metric", [&] {
        report.ul =
            TransactionUl(recoding, original, data.item_dictionary().size());
      });
      add_task("item frequency metric", [&] {
        report.item_freq_error =
            MeanItemFrequencyError(recoding, original, data.item_dictionary());
      });
      add_task("item kl metric", [&] {
        report.kl_items =
            ItemKlDivergence(recoding, original, data.item_dictionary().size());
      });
    } else {
      shed.push_back(
          "transaction distribution metrics (ul, item_freq_error, kl_items)");
    }
    report.suppressed = static_cast<double>(recoding.suppressed_occurrences);
  }
  if (eval.workload_shed()) {
    shed.push_back("ARE query workload");
  }
  Status are_status;
  double are_seconds = 0;
  if (eval.has_workload()) {
    tasks.push_back([&]() -> Status {
      const RelationalRecoding* rel =
          run.relational.has_value() ? &*run.relational : nullptr;
      const TransactionRecoding* txn =
          run.transaction.has_value() ? &*run.transaction : nullptr;
      Stopwatch are_watch;
      ScopedSpan span(std::string_view("evaluate.are"));
      const QueryEvaluator& evaluator = eval.evaluator();
      SECRETA_ASSIGN_OR_RETURN(RecodingCache cache,
                               evaluator.BuildRecodingCache(rel, txn));
      // Nested fan-out over the same pool: the ARE task helps drain its own
      // query batches, so composing with the metric fan-out (and with
      // comparator-level parallelism above) cannot deadlock.
      Result<AreReport> are = evaluator.Are(eval.bound_workload(), rel, txn,
                                            cache, pool, cancel);
      are_seconds = are_watch.ElapsedSeconds();
      if (!are.ok()) return are.status();
      report.are = are.value().are;
      return Status::OK();
    });
  }
  add_task("guarantee check", [&] {
    const AnonParams& params = run.config.params;
    report.guarantee_checked = true;
    switch (run.config.mode) {
      case AnonMode::kRelational:
        report.guarantee_name = "k-anonymity";
        report.guarantee_ok = IsKAnonymous(*run.relational, params.k);
        break;
      case AnonMode::kTransaction:
        if (inputs.privacy != nullptr && !inputs.privacy->empty()) {
          report.guarantee_name = "privacy-policy";
          report.guarantee_ok = SatisfiesPrivacyPolicy(
              *inputs.privacy, *run.transaction, params.k);
        } else if (run.config.transaction_algorithm == "RhoUncertainty") {
          // Checked by the dedicated property tests; the checker needs the
          // sensitive-item marking, which the engine does not retain.
          report.guarantee_checked = false;
          report.guarantee_name = "rho-uncertainty";
        } else {
          report.guarantee_name = "km-anonymity";
          report.guarantee_ok =
              IsKmAnonymous(run.transaction->records, params.k, params.m);
        }
        break;
      case AnonMode::kRt:
        report.guarantee_name = "(k,km)-anonymity";
        report.guarantee_ok = IsKKmAnonymous(
            *run.relational, run.transaction->records, params.k, params.m);
        break;
    }
  });

  std::vector<Status> statuses(tasks.size());
  ParallelFor(pool, tasks.size(),
              [&](size_t i) { statuses[i] = tasks[i](); });
  // Report cancellation canonically ahead of whichever task observed it.
  SECRETA_RETURN_IF_ERROR(CheckCancelled(inputs.cancel, "metrics phase"));
  for (const Status& status : statuses) {
    SECRETA_RETURN_IF_ERROR(status);
  }

  if (!shed.empty()) {
    report.degraded = true;
    report.degraded_detail =
        "memory budget exceeded; shed: " + Join(shed, "; ");
  }
  report.evaluation_seconds = eval_watch.ElapsedSeconds();
  if (eval.has_workload() && are_seconds > 0) {
    report.queries_per_second =
        static_cast<double>(eval.workload_size()) / are_seconds;
  }
  run.phases.Add("evaluation", report.evaluation_seconds);
  // Break the ARE sub-phase out of the aggregate evaluation row so reports
  // and JSON exports show where query estimation time goes.
  if (eval.has_workload() && are_seconds > 0) {
    run.phases.Add("are", are_seconds);
  }
  report.run = std::move(run);
  return report;
}

Result<EvaluationReport> BuildReport(const EngineInputs& inputs,
                                     RunResult run, const Workload* workload) {
  SECRETA_ASSIGN_OR_RETURN(EvalContext eval,
                           EvalContext::Create(inputs, workload));
  return BuildReport(inputs, std::move(run), eval);
}

Result<EvaluationReport> EvaluateMethod(const EngineInputs& inputs,
                                        const AlgorithmConfig& config,
                                        const Workload* workload) {
  SECRETA_ASSIGN_OR_RETURN(RunResult run, RunAnonymization(inputs, config));
  return BuildReport(inputs, std::move(run), workload);
}

}  // namespace secreta
