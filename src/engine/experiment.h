// The Experimentation Module: single-parameter execution (one report) and
// varying-parameter execution (a sweep producing metric-vs-parameter series),
// plus the Series type consumed by the plotting and export modules.

#ifndef SECRETA_ENGINE_EXPERIMENT_H_
#define SECRETA_ENGINE_EXPERIMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "engine/evaluator.h"

namespace secreta {

class CheckpointLog;

/// Progress notification emitted after every completed sweep point — the
/// mechanism behind the paper's "interactive and progressive" analysis: the
/// frontend can render partial series while the experiment continues. Its
/// first four fields also name the point to RunSweepPoint.
struct ProgressEvent {
  size_t config_index = 0;   ///< which configuration (Comparison mode)
  size_t point_index = 0;    ///< 0-based index of the finished point
  size_t total_points = 0;   ///< points in this sweep
  double value = 0;          ///< the varying parameter's value
  const EvaluationReport* report = nullptr;  ///< finished point (borrowed)
  /// True when the point was replayed from a checkpoint instead of computed.
  bool from_checkpoint = false;
};

/// Observer for progress events. In Comparison mode callbacks may fire from
/// worker threads; CompareMethods serializes them (one at a time), but runs
/// the points of one configuration concurrently, so its events may arrive
/// out of point order. Each event carries its point's own point_index,
/// total_points and value.
using ProgressCallback = std::function<void(const ProgressEvent&)>;

/// A named (x, y) series, the unit of plotting and CSV export.
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;

  size_t size() const { return x.size(); }
};

/// A varying parameter: name ("k", "m", "delta", ...), inclusive range and
/// step.
struct ParamSweep {
  std::string parameter = "k";
  double start = 2;
  double end = 10;
  double step = 2;

  /// The concrete values of the sweep (start, start+step, ..., <= end).
  /// InvalidArgument when a bound or the step is not finite, the step is
  /// not positive, end < start, or the sweep has more than 10000 points.
  Result<std::vector<double>> Values() const;

  /// `config` with this sweep's parameter set to `value`, validated.
  Result<AlgorithmConfig> Apply(const AlgorithmConfig& config,
                                double value) const;
};

/// One point of a sweep: parameter value + full report.
struct SweepPoint {
  double value = 0;
  EvaluationReport report;
};

/// A completed sweep for one configuration.
struct SweepResult {
  AlgorithmConfig base;
  ParamSweep sweep;
  std::vector<SweepPoint> points;

  /// Extracts metric `name` ("are", "gcp", "ul", "runtime", ...) as a Series
  /// labeled "<config label> <metric>".
  Result<Series> Extract(const std::string& metric) const;
};

/// Runs `config` once per sweep value (the varying parameter overrides the
/// corresponding field of config.params). `progress` (optional) fires after
/// each point; `config_index` tags Comparison-mode events. `shared_eval`
/// (optional) supplies a pre-bound evaluation context — the comparator binds
/// the workload once and shares it across every configuration; when null the
/// sweep binds once for all of its own points. `checkpoint` (optional)
/// enables resume: points already recorded in the log are replayed
/// bit-identically (ProgressEvent::from_checkpoint set) instead of
/// recomputed, and every freshly computed point is appended to the log
/// before the sweep moves on.
Result<SweepResult> RunSweep(const EngineInputs& inputs,
                             const AlgorithmConfig& config,
                             const ParamSweep& sweep, const Workload* workload,
                             const ProgressCallback& progress = nullptr,
                             size_t config_index = 0,
                             const EvalContext* shared_eval = nullptr,
                             CheckpointLog* checkpoint = nullptr);

/// One point of a sweep: RunSweep's loop body, which CompareMethods also
/// runs, one task per (configuration, point) cell. `point_config` is the
/// swept configuration at the point (ParamSweep::Apply). `cell` names the
/// point by its config_index, point_index, total_points and value; its
/// report and from_checkpoint are filled in before `progress` (optional)
/// fires with it. A point recorded in `checkpoint` (optional) is replayed
/// bit-identically instead of computed; a computed point is appended to it.
Result<SweepPoint> RunSweepPoint(const EngineInputs& inputs,
                                 const AlgorithmConfig& point_config,
                                 ProgressEvent cell, const EvalContext& eval,
                                 CheckpointLog* checkpoint,
                                 const ProgressCallback& progress);

}  // namespace secreta

#endif  // SECRETA_ENGINE_EXPERIMENT_H_
