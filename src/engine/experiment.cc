#include "engine/experiment.h"

#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "robust/checkpoint.h"
#include "robust/fault_injection.h"

namespace secreta {

Result<std::vector<double>> ParamSweep::Values() const {
  const std::pair<const char*, double> fields[] = {
      {"start", start}, {"end", end}, {"step", step}};
  for (const auto& [name, field] : fields) {
    if (!std::isfinite(field)) {
      return Status::InvalidArgument(
          StrFormat("sweep %s must be finite, got %g", name, field));
    }
  }
  if (step <= 0) return Status::InvalidArgument("sweep step must be positive");
  if (end < start) return Status::InvalidArgument("sweep end < start");
  std::vector<double> values;
  // Tolerate floating-point drift at the upper bound.
  for (double v = start; v <= end + step * 1e-9; v += step) {
    values.push_back(v);
    if (values.size() > 10000) {
      return Status::InvalidArgument("sweep has more than 10000 points");
    }
  }
  return values;
}

Result<AlgorithmConfig> ParamSweep::Apply(const AlgorithmConfig& config,
                                          double value) const {
  AlgorithmConfig point_config = config;
  SECRETA_RETURN_IF_ERROR(point_config.params.Set(parameter, value));
  SECRETA_RETURN_IF_ERROR(point_config.params.Validate());
  return point_config;
}

Result<Series> SweepResult::Extract(const std::string& metric) const {
  Series series;
  series.name = base.Label() + " " + metric;
  for (const SweepPoint& point : points) {
    SECRETA_ASSIGN_OR_RETURN(double y, point.report.Metric(metric));
    series.x.push_back(point.value);
    series.y.push_back(y);
  }
  return series;
}

Result<SweepResult> RunSweep(const EngineInputs& inputs,
                             const AlgorithmConfig& config,
                             const ParamSweep& sweep, const Workload* workload,
                             const ProgressCallback& progress,
                             size_t config_index,
                             const EvalContext* shared_eval,
                             CheckpointLog* checkpoint) {
  SweepResult result;
  result.base = config;
  result.sweep = sweep;
  SECRETA_ASSIGN_OR_RETURN(std::vector<double> values, sweep.Values());
  // Bind the workload once for the whole sweep (unless the caller already
  // shares a context across several sweeps) instead of once per point.
  std::optional<EvalContext> own_eval;
  if (shared_eval == nullptr) {
    SECRETA_ASSIGN_OR_RETURN(EvalContext created,
                             EvalContext::Create(inputs, workload));
    own_eval.emplace(std::move(created));
    shared_eval = &*own_eval;
  }
  for (size_t i = 0; i < values.size(); ++i) {
    SECRETA_RETURN_IF_ERROR(CheckCancelled(inputs.cancel, "sweep point"));
    SECRETA_ASSIGN_OR_RETURN(AlgorithmConfig point_config,
                             sweep.Apply(config, values[i]));
    ProgressEvent cell;
    cell.config_index = config_index;
    cell.point_index = i;
    cell.total_points = values.size();
    cell.value = values[i];
    SECRETA_ASSIGN_OR_RETURN(
        SweepPoint point, RunSweepPoint(inputs, point_config, cell,
                                        *shared_eval, checkpoint, progress));
    result.points.push_back(std::move(point));
  }
  return result;
}

Result<SweepPoint> RunSweepPoint(const EngineInputs& inputs,
                                 const AlgorithmConfig& point_config,
                                 ProgressEvent cell, const EvalContext& eval,
                                 CheckpointLog* checkpoint,
                                 const ProgressCallback& progress) {
  SECRETA_FAULT_POINT("sweep.point");
  SECRETA_TRACE_SPAN("sweep.point");
  SweepPoint point{cell.value, {}};
  uint64_t point_key = 0;
  cell.from_checkpoint = false;
  if (checkpoint != nullptr) {
    point_key = CheckpointLog::PointKey(
        point_config, checkpoint->dataset_fingerprint(),
        checkpoint->workload_fingerprint(), cell.config_index);
    if (checkpoint->Find(point_key, &point.report)) {
      // The log stores everything but the config and recodings; the config
      // is recomputed by the caller exactly as the recorded run computed it.
      point.report.run.config = point_config;
      cell.from_checkpoint = true;
      MetricsRegistry::Global()
          .counter(metric_names::kCheckpointPointsRestored)
          ->Increment();
    }
  }
  if (!cell.from_checkpoint) {
    SECRETA_ASSIGN_OR_RETURN(RunResult run,
                             RunAnonymization(inputs, point_config));
    SECRETA_ASSIGN_OR_RETURN(point.report,
                             BuildReport(inputs, std::move(run), eval));
    if (checkpoint != nullptr) {
      SECRETA_RETURN_IF_ERROR(
          checkpoint->Append(point_key, cell.value, point.report));
      MetricsRegistry::Global()
          .counter(metric_names::kCheckpointPointsAppended)
          ->Increment();
    }
  }
  if (progress) {
    cell.report = &point.report;
    progress(cell);
  }
  return point;
}

}  // namespace secreta
