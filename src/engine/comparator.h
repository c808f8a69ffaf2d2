// The Method Comparator (Comparison mode): executes several configurations —
// each with the same varying parameter — fanning the (configuration, value)
// cells out over a thread pool (the "N threads" of the paper's architecture,
// Fig. 1), and returns one SweepResult per configuration for side-by-side
// plotting.

#ifndef SECRETA_ENGINE_COMPARATOR_H_
#define SECRETA_ENGINE_COMPARATOR_H_

#include <vector>

#include "engine/experiment.h"

namespace secreta {

/// Options for CompareMethods.
struct CompareOptions {
  /// Worker threads; 0 = one per grid cell, capped at the hardware threads
  /// (never 0).
  size_t num_threads = 0;
  /// Optional progress observer; invocations are serialized across workers
  /// (the "progressive comparison" of the paper's Comparison mode). Cells
  /// of one configuration run concurrently, so a configuration's events may
  /// arrive out of point order; each carries its cell's point_index,
  /// total_points and value. The serialization guarantee holds
  /// unconditionally — including while the comparison is being cancelled
  /// through `EngineInputs::cancel`: a callback never overlaps another
  /// callback, and no callback fires for a cell that was cut off by
  /// cancellation. Callbacks may cancel the token themselves (e.g. an "abort
  /// after first result" UI); cells not yet started are then skipped, and
  /// the cells in flight finish.
  ProgressCallback progress;
  /// When non-empty, checkpoint/resume for the whole grid: every completed
  /// (configuration, sweep value) cell is appended to this file, and a
  /// restarted comparison replays recorded cells bit-identically instead of
  /// recomputing them. The file is validated against the dataset/workload
  /// fingerprints (FailedPrecondition on mismatch).
  std::string checkpoint_path;
};

/// Runs every configuration over `sweep`, one pool task per (configuration,
/// value) cell, submitted configuration-major. Results are in the order of
/// `configs`, each with its points in sweep order; a failure of any cell
/// fails the comparison. If `inputs.cancel` fires mid-comparison, cells not
/// yet started are skipped, and the whole comparison returns
/// Status::Cancelled once the in-flight cells finish.
Result<std::vector<SweepResult>> CompareMethods(
    const EngineInputs& inputs, const std::vector<AlgorithmConfig>& configs,
    const ParamSweep& sweep, const Workload* workload,
    const CompareOptions& options = {});

}  // namespace secreta

#endif  // SECRETA_ENGINE_COMPARATOR_H_
