// Checkpoint/resume for sweeps and comparison grids. After every completed
// sweep point (grid cell) the engine appends one fingerprinted record to a
// checkpoint file; a restarted sweep opened against the same file skips the
// recorded points, replaying their reports instead of recomputing them.
//
// Records are keyed by the ResultCache's canonical run key (config hash x
// dataset fingerprint x workload fingerprint) combined with the
// configuration's grid index, so a checkpoint is only ever replayed for the
// exact same work. The file header pins the dataset and workload
// fingerprints; opening a checkpoint written for different inputs fails with
// FailedPrecondition instead of silently mixing experiments.
//
// The file is a RecordLog (record_log.h) with one line per point, flushed
// per append: a process killed mid-sweep loses at most the in-flight point.
// Doubles are stored as C99 hex-floats (printf %a), which round-trip
// exactly — a restored report serializes to byte-identical JSON for every
// non-wall-clock field.
//
// Restored reports carry the full metric set, phase rows, cluster counts and
// guarantee verdict, but not the recodings themselves (RunResult::relational
// / ::transaction stay empty, exactly like a report replayed from the
// ResultCache would after export): they replay and export bit-identically
// but cannot be re-materialized into an anonymized dataset.

#ifndef SECRETA_ROBUST_CHECKPOINT_H_
#define SECRETA_ROBUST_CHECKPOINT_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/annotations.h"
#include "common/mutex.h"
#include "engine/evaluator.h"

namespace secreta {

/// \brief Append-only, thread-safe checkpoint file for one experiment.
///
/// Shared by every worker of a comparison grid; Append serializes through an
/// internal mutex and flushes per record.
class CheckpointLog {
 public:
  /// Opens (or creates) the checkpoint at `path` for a run over inputs with
  /// the given fingerprints. Loads every complete record of an existing
  /// file and cuts off a corrupt or truncated tail (killed mid-append).
  /// Fails with FailedPrecondition, leaving the file untouched, when it was
  /// written for different fingerprints.
  static Result<std::unique_ptr<CheckpointLog>> Open(const std::string& path,
                                                     uint64_t dataset_fp,
                                                     uint64_t workload_fp);

  /// Checkpoint key of one unit of work: the run cache key of the fully
  /// substituted point configuration, mixed with the configuration's index
  /// in the comparison grid (0 for a plain sweep).
  static uint64_t PointKey(const AlgorithmConfig& point_config,
                           uint64_t dataset_fp, uint64_t workload_fp,
                           size_t config_index);

  /// Copies the stored report for `key` into `*report` (and the sweep value
  /// into `*value` when non-null). False when the key is not recorded.
  bool Find(uint64_t key, EvaluationReport* report,
            double* value = nullptr) const SECRETA_EXCLUDES(mutex_);

  /// Appends one completed point and flushes. Later Opens (and Finds on this
  /// instance) will see it.
  Status Append(uint64_t key, double value, const EvaluationReport& report)
      SECRETA_EXCLUDES(mutex_);

  uint64_t dataset_fingerprint() const { return dataset_fp_; }
  uint64_t workload_fingerprint() const { return workload_fp_; }
  const std::string& path() const { return path_; }
  /// Records loaded from the file at Open time (pre-crash progress).
  size_t loaded() const { return loaded_; }
  /// Records appended through this instance.
  size_t appended() const SECRETA_EXCLUDES(mutex_);

 private:
  struct Record {
    double value = 0;
    EvaluationReport report;
  };

  CheckpointLog(std::string path, uint64_t dataset_fp, uint64_t workload_fp)
      : path_(std::move(path)),
        dataset_fp_(dataset_fp),
        workload_fp_(workload_fp) {}

  const std::string path_;
  const uint64_t dataset_fp_;
  const uint64_t workload_fp_;
  size_t loaded_ = 0;

  mutable Mutex mutex_;
  std::unordered_map<uint64_t, Record> records_ SECRETA_GUARDED_BY(mutex_);
  std::ofstream out_ SECRETA_GUARDED_BY(mutex_);
  size_t appended_ SECRETA_GUARDED_BY(mutex_) = 0;
};

/// Convenience: computes the dataset/workload fingerprints of `inputs` (an
/// O(dataset) scan) and opens the checkpoint with them.
Result<std::unique_ptr<CheckpointLog>> OpenCheckpointForRun(
    const std::string& path, const EngineInputs& inputs,
    const Workload* workload);

}  // namespace secreta

#endif  // SECRETA_ROBUST_CHECKPOINT_H_
