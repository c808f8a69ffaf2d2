// Checkpoint/resume for sharded anonymization runs. Where CheckpointLog
// records one evaluation report per (config, grid, shard) key, a sharded
// run also needs the *output rows* of every completed shard back — the
// merged release must come out byte-identical after a crash, and shard
// outputs are not derivable from a report. ShardCheckpoint therefore
// persists, per completed shard: the global row ids, the anonymized CSV
// line of every row, and the shard's aggregate stats.
//
// Payloads stay on disk. Append writes a block's lines into the file as its
// caller produces them; a PayloadReader streams one stored block back line by
// line through a fixed-size buffer, parsing each in place. Readers opened
// together (OpenPayloads, for a hash-plan merge that reads every shard side
// by side) share one file handle and split one fixed budget of buffer bytes,
// so neither descriptors nor buffers grow with the shard count. Only
// per-shard metadata (stats, row count, payload fingerprint, file offset) is
// held in memory, so neither writing nor replaying a 1M-record run holds a
// shard's lines, which is the whole point of sharding (see
// docs/OPERATIONS.md "Out-of-core & sharded runs").
//
// The file is a RecordLog (record_log.h), flushed per shard, whose header
// pins (run key, dataset fingerprint, shard-plan fingerprint); opening
// against a file written for a different run, dataset or partition fails
// with FailedPrecondition. Each shard block ends with a "done" line carrying
// an FNV-1a of the block payload: a process killed mid-append leaves a block
// without a valid "done" line, which Open cuts off, so resume recomputes
// exactly the unfinished shards. A PayloadReader re-hashes the block it
// streams against the fingerprint Open recorded.

#ifndef SECRETA_ROBUST_SHARD_CHECKPOINT_H_
#define SECRETA_ROBUST_SHARD_CHECKPOINT_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace secreta {

/// Per-shard stats available without touching the payload; the head line of
/// a shard block.
struct ShardMeta {
  size_t shard = 0;
  size_t num_rows = 0;
  double gcp = 0;  ///< shard-mean GCP of the recoding
  /// Load, anonymize and materialize time of the original run; the head
  /// line is written before the lines, so it does not cover writing them.
  double seconds = 0;
};

/// \brief Append-only, thread-safe per-shard output log for one sharded run.
class ShardCheckpoint {
 public:
  /// Bytes of the buffer a PayloadReader opened alone reads through. A line
  /// longer than its reader's buffer still round-trips.
  static constexpr size_t kBufferBytes = 64 << 10;
  /// Buffer bytes that the readers of one OpenPayloads call split evenly,
  /// each getting at most kBufferBytes and at least kMinReaderBytes.
  static constexpr size_t kSharedBufferBytes = 1 << 20;
  static constexpr size_t kMinReaderBytes = 64;

  /// Produces payload line `i` of a block being appended: sets `*row` to its
  /// global row id and `*csv` to its newline-free CSV text, which must stay
  /// valid until the next call.
  using PayloadLine =
      std::function<Status(size_t i, uint32_t* row, std::string_view* csv)>;

  class PayloadReader;

  /// Opens (or creates) the checkpoint at `path` for the run identified by
  /// `run_key` (CheckpointLog::PointKey of the config) over the dataset and
  /// partition with the given fingerprints.
  static Result<std::unique_ptr<ShardCheckpoint>> Open(const std::string& path,
                                                       uint64_t run_key,
                                                       uint64_t dataset_fp,
                                                       uint64_t plan_fp);

  /// Copies the stored metadata for `shard`. False if missing.
  bool FindMeta(size_t shard, ShardMeta* out) const SECRETA_EXCLUDES(mutex_);

  /// Opens `shard`'s stored payload for streaming, through a kBufferBytes
  /// buffer. NotFound if it is not in the checkpoint.
  Result<PayloadReader> OpenPayload(size_t shard) const
      SECRETA_EXCLUDES(mutex_);

  /// Opens the stored payloads of `shards` (in that order) for streaming side
  /// by side. The readers share one file handle and one allocation of at
  /// most max(kSharedBufferBytes, kMinReaderBytes * shards.size()) bytes, so
  /// a merge over thousands of shards needs one descriptor. NotFound if a
  /// shard is not in the checkpoint.
  Result<std::vector<PayloadReader>> OpenPayloads(
      const std::vector<size_t>& shards) const SECRETA_EXCLUDES(mutex_);

  /// Appends one completed shard as a block and flushes it: the head line
  /// from `meta`, then `meta.num_rows` payload lines from `line`, each
  /// written straight into the file's kBufferBytes stream buffer, then the
  /// "done" line with the payload fingerprint. The block is written under
  /// the checkpoint's lock, so `line` must not call back into this
  /// checkpoint. A block that fails part-way (an error from `line`, a line
  /// with a newline, a failed write) is left torn for the next Open to cut,
  /// and every later Append fails.
  Status Append(const ShardMeta& meta, const PayloadLine& line)
      SECRETA_EXCLUDES(mutex_);

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

  struct PayloadFile;

  explicit ShardCheckpoint(std::string path)
      : path_(std::move(path)), out_buffer_(new char[kBufferBytes]) {}

  /// Copies the stored entry for `shard`; NotFound if it is missing.
  Result<Entry> FindEntry(size_t shard) const SECRETA_EXCLUDES(mutex_);

  const std::string path_;
  size_t loaded_ = 0;

  mutable Mutex mutex_;
  std::map<size_t, Entry> records_ SECRETA_GUARDED_BY(mutex_);
  /// out_'s buffer (kBufferBytes; the default is 8 KiB), set before it
  /// opens and declared first so that it outlives the stream.
  const std::unique_ptr<char[]> out_buffer_;
  std::ofstream out_ SECRETA_GUARDED_BY(mutex_);
  /// An Append failed part-way and left a torn block at the end of the file.
  bool torn_ SECRETA_GUARDED_BY(mutex_) = false;
};

/// \brief Streams one stored shard block's payload lines, in file order,
/// through its share of a buffer.
///
/// Each line "<row>\t<csv>" is parsed in place. Before the last line is
/// handed out, the block is checked against the fingerprint Open recorded,
/// so a reader that returns every line has verified the whole block. Readers
/// from one OpenPayloads call read their file handle at their own offsets,
/// one at a time: they are not thread-safe with respect to each other.
class ShardCheckpoint::PayloadReader {
 public:
  /// Reads the next payload line: `*row` gets its global row id and `*csv`
  /// a view of its CSV text, valid until the next Next call on this reader
  /// or on another reader from the same OpenPayloads call. False once every
  /// line of the block has been read. A torn or malformed line, or a block
  /// that no longer matches its fingerprint, fails with IOError ("payload
  /// changed since load").
  Result<bool> Next(uint32_t* row, std::string_view* csv);

 private:
  friend class ShardCheckpoint;

  PayloadReader(std::shared_ptr<PayloadFile> file, const Entry& entry,
                char* buffer, size_t capacity);
  bool ReadLine(std::string_view* line);
  bool Refill();
  Status Changed() const;

  std::shared_ptr<PayloadFile> file_;
  size_t shard_ = 0;
  size_t num_rows_ = 0;
  size_t read_ = 0;
  uint64_t expected_fp_ = 0;
  uint64_t fp_ = 0;
  /// File offset of the first byte not yet read into the buffer.
  std::streamoff offset_ = 0;
  char* buffer_ = nullptr;  ///< this reader's slice of the shared buffer
  size_t capacity_ = 0;
  size_t begin_ = 0;  ///< unread bytes are buffer_[begin_, end_)
  size_t end_ = 0;
};

}  // namespace secreta

#endif  // SECRETA_ROBUST_SHARD_CHECKPOINT_H_
