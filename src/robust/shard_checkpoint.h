// Checkpoint/resume for sharded anonymization runs. Where CheckpointLog
// records one evaluation report per (config, grid, shard) key, a sharded
// run also needs the *output rows* of every completed shard back — the
// merged release must come out byte-identical after a crash, and shard
// outputs are not derivable from a report. ShardCheckpoint therefore
// persists, per completed shard: the global row ids, the anonymized CSV
// line of every row, and the shard's aggregate stats.
//
// Payloads stay on disk. Only per-shard metadata (stats, row count,
// payload fingerprint, file offset) is held in memory; ReadPayload() seeks
// and re-reads one shard's block on demand. That keeps the resident
// footprint of a resumed 1M-record run at one shard, which is the whole
// point of sharding (see docs/OPERATIONS.md "Out-of-core & sharded runs").
//
// The file is a RecordLog (record_log.h), flushed per shard, whose header
// pins (run key, dataset fingerprint, shard-plan fingerprint); opening
// against a file written for a different run, dataset or partition fails
// with FailedPrecondition. Each shard block ends with a "done" line carrying
// an FNV-1a of the block payload: a process killed mid-append leaves a block
// without a valid "done" line, which Open cuts off, so resume recomputes
// exactly the unfinished shards.

#ifndef SECRETA_ROBUST_SHARD_CHECKPOINT_H_
#define SECRETA_ROBUST_SHARD_CHECKPOINT_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace secreta {

/// One completed shard's output, exactly as needed for a byte-identical
/// merge: ascending global row ids and one anonymized CSV line per row.
struct ShardRecord {
  size_t shard = 0;
  std::vector<uint32_t> rows;
  std::vector<std::string> lines;  ///< newline-free, parallel to `rows`
  double gcp = 0;                  ///< shard-mean GCP of the recoding
  double seconds = 0;              ///< original anonymize+materialize time
};

/// Per-shard stats available without touching the payload.
struct ShardMeta {
  size_t shard = 0;
  size_t num_rows = 0;
  double gcp = 0;
  double seconds = 0;
};

/// \brief Append-only, thread-safe per-shard output log for one sharded run.
class ShardCheckpoint {
 public:
  /// Opens (or creates) the checkpoint at `path` for the run identified by
  /// `run_key` (CheckpointLog::PointKey of the config) over the dataset and
  /// partition with the given fingerprints.
  static Result<std::unique_ptr<ShardCheckpoint>> Open(const std::string& path,
                                                       uint64_t run_key,
                                                       uint64_t dataset_fp,
                                                       uint64_t plan_fp);

  /// Copies the stored metadata for `shard`. False if missing.
  bool FindMeta(size_t shard, ShardMeta* out) const SECRETA_EXCLUDES(mutex_);

  /// Re-reads `shard`'s payload from disk and re-verifies its fingerprint.
  Result<ShardRecord> ReadPayload(size_t shard) const SECRETA_EXCLUDES(mutex_);

  /// Appends one completed shard and flushes. `record.rows` and
  /// `record.lines` must be the same length; lines must be newline-free.
  Status Append(const ShardRecord& record) SECRETA_EXCLUDES(mutex_);

  /// Shards loaded from a pre-existing file at Open (pre-crash progress).
  size_t loaded() const { return loaded_; }
  const std::string& path() const { return path_; }

 private:
  struct Entry {
    ShardMeta meta;
    uint64_t payload_fp = 0;
    /// Offset of the first payload line within the file.
    std::streamoff offset = 0;
  };

  explicit ShardCheckpoint(std::string path) : path_(std::move(path)) {}

  const std::string path_;
  size_t loaded_ = 0;

  mutable Mutex mutex_;
  std::map<size_t, Entry> records_ SECRETA_GUARDED_BY(mutex_);
  std::ofstream out_ SECRETA_GUARDED_BY(mutex_);
};

}  // namespace secreta

#endif  // SECRETA_ROBUST_SHARD_CHECKPOINT_H_
