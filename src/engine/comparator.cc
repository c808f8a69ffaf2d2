#include "engine/comparator.h"

#include <algorithm>
#include <thread>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "robust/checkpoint.h"
#include "robust/fault_injection.h"

namespace secreta {

Result<std::vector<SweepResult>> CompareMethods(
    const EngineInputs& inputs, const std::vector<AlgorithmConfig>& configs,
    const ParamSweep& sweep, const Workload* workload,
    const CompareOptions& options) {
  if (configs.empty()) {
    return Status::InvalidArgument("no configurations to compare");
  }
  SECRETA_TRACE_SPAN("compare");
  SECRETA_ASSIGN_OR_RETURN(std::vector<double> values, sweep.Values());
  // Bind the workload once for the entire comparison grid: exact counts and
  // clause bitmaps depend only on the dataset, so every cell shares the same
  // read-only EvalContext.
  SECRETA_ASSIGN_OR_RETURN(EvalContext shared_eval,
                           EvalContext::Create(inputs, workload));
  // One shared, thread-safe checkpoint log for the whole grid; each cell is
  // keyed by (point config, config index).
  std::unique_ptr<CheckpointLog> checkpoint;
  if (!options.checkpoint_path.empty()) {
    SECRETA_ASSIGN_OR_RETURN(
        checkpoint,
        OpenCheckpointForRun(options.checkpoint_path, inputs, workload));
  }
  const size_t points = values.size();
  const size_t cells = configs.size() * points;
  size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  size_t threads =
      options.num_threads > 0 ? options.num_threads : std::min(cells, hw);
  ThreadPool pool(threads, "compare");
  std::vector<Result<SweepPoint>> results(
      cells, Result<SweepPoint>(Status::Internal("not run")));
  Mutex mutex;
  // Serialize user progress callbacks across workers.
  Mutex progress_mutex;
  ProgressCallback serialized;
  if (options.progress) {
    serialized = [&](const ProgressEvent& event) {
      MutexLock lock(progress_mutex);
      options.progress(event);
    };
  }
  // One task per (configuration, point) cell, configuration-major: a long
  // configuration's points spread over the workers instead of queueing
  // behind each other on one.
  for (size_t cell = 0; cell < cells; ++cell) {
    pool.Submit([&, cell] {
      // Inputs are read-only; each cell builds its own working state. A
      // cancelled comparison short-circuits cells that have not started.
      Result<SweepPoint> r = [&]() -> Result<SweepPoint> {
        SECRETA_RETURN_IF_ERROR(CheckCancelled(inputs.cancel, "compare cell"));
        ProgressEvent where;
        where.config_index = cell / points;
        where.point_index = cell % points;
        where.total_points = points;
        where.value = values[where.point_index];
        SECRETA_ASSIGN_OR_RETURN(
            AlgorithmConfig point_config,
            sweep.Apply(configs[where.config_index], where.value));
        // The span names the cell so a trace shows which cell occupied
        // which worker.
        ScopedSpan span("compare.cell " + point_config.Label());
        SECRETA_FAULT_POINT("compare.cell");
        return RunSweepPoint(inputs, point_config, where, shared_eval,
                             checkpoint.get(), serialized);
      }();
      MutexLock lock(mutex);
      results[cell] = std::move(r);
    });
  }
  pool.Wait();
  // Report cancellation ahead of the per-cell statuses so the caller sees
  // one canonical Status::Cancelled rather than whichever cell lost the
  // race.
  SECRETA_RETURN_IF_ERROR(CheckCancelled(inputs.cancel, "compare"));
  std::vector<SweepResult> out(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    out[c].base = configs[c];
    out[c].sweep = sweep;
    out[c].points.reserve(points);
    for (size_t i = 0; i < points; ++i) {
      Result<SweepPoint>& r = results[c * points + i];
      if (!r.ok()) return r.status();
      out[c].points.push_back(std::move(r).value());
    }
  }
  return out;
}

}  // namespace secreta
