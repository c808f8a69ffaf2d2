// Partitioned, out-of-core anonymization: run one algorithm
// configuration independently over every shard of a ShardPlan, then merge
// the per-shard outputs into a single release in original row order.
//
// Shards run one at a time. Each is materialized through a ColumnProvider
// (one mmap window for SBC1 files), anonymized with the standard engine
// (RunAnonymization; only the algorithms' own pool work fans out, which
// for relational Incognito is its per-level lattice scan) and turned into
// its anonymized Dataset from ids (BuildAnonymizedDataset). One pass then
// writes its release lines from that dataset's ids (Dataset::AppendCsvLine)
// through one reused line buffer into the shard's ShardCheckpoint block, so
// interrupted runs resume byte-identically, and into the release.
//
// The release (`<output>.tmp`, header first) is opened before any shard
// runs, so an unwritable output path is refused up front. A range plan's
// shards are contiguous ascending blocks, so the release is written inside
// the shard loop: a computed shard's lines as they are written, a shard
// already in the checkpoint streamed from it. A hash plan's rows interleave;
// after the loop a k-way merge by global row id takes each row's line from
// the shard that owns it (ShardPlan::ShardOf). With a checkpoint it reads
// one PayloadReader per shard, all opened together (OpenPayloads: one
// descriptor and a fixed buffer budget however many shards there are);
// without one it walks the lines the loop held, the only lines any path
// holds. The release is written through a 64 KiB stream buffer. The tmp
// file is renamed into place only after every shard is done and is removed
// on any failure or cancellation. Spans: shard.load, shard.anonymize,
// shard.materialize and shard.write (lines to checkpoint and release) per
// computed shard, shard.replay per resumed shard of a range plan, and one
// shard.merge per hash-plan run.
//
// A relational or RT plan with a shard of fewer than k rows is refused with
// InvalidArgument before any shard runs: no relational algorithm can make
// such a shard k-anonymous. Determinism contract, asserted by
// tests/shard_test.cc:
//
//   * a 1-shard plan reproduces the unsharded run byte-for-byte
//     (ShardSeed(seed, 0) == seed, global dictionaries, same engine);
//   * for S > 1 the release is byte-identical across backends (memory vs
//     binary/mmap), thread-pool sizes, and checkpoint resume — though not
//     to the unsharded run, since each shard is anonymized independently;
//   * the merged release still satisfies the mode's privacy guarantee:
//     every equivalence class of the concatenation is a class of some
//     shard, so per-shard k (and k^m) survive the union — re-checked for
//     real with core/audit.h rather than assumed, for exactly the guarantee
//     the mode promises (k, k^m, or (k, k^m) per class).
//
// The merged release is defined by its CSV bytes (header + one line per
// record, global row order); `release_fingerprint` is the FNV-1a of exactly
// those bytes. Replayed blocks must hold the plan's row ids in order; a
// block that does not is refused with FailedPrecondition naming the shard.

#ifndef SECRETA_ENGINE_SHARDED_RUNNER_H_
#define SECRETA_ENGINE_SHARDED_RUNNER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "core/audit.h"
#include "data/column_provider.h"
#include "data/shard.h"
#include "engine/anonymization_module.h"
#include "hierarchy/hierarchy_builder.h"

namespace secreta {

class MemoryBudget;

/// Options for one sharded run.
struct ShardedRunOptions {
  /// 0 adopts the provider's native plan (SBC1 files) and falls back to a
  /// single shard; otherwise the requested count (binary providers reject
  /// plans other than their native one).
  size_t num_shards = 0;
  ShardKind shard_kind = ShardKind::kRange;
  uint64_t salt = 0;

  /// Fanout etc. for the automatically generated hierarchies (built from
  /// global dictionaries, so identical for every shard and backend).
  HierarchyBuildOptions hierarchy;

  /// When non-empty, per-shard outputs are logged here (ShardCheckpoint):
  /// finished shards are skipped on restart and stream from disk into the
  /// release. Empty: nothing is resumable, and only hash plans hold lines
  /// (every computed shard's, until the merge).
  std::string checkpoint_path;

  /// When non-empty, the merged release CSV is written here (atomically).
  std::string output_path;

  /// Parse the merged release back into `ShardedRunResult::merged`. Costs
  /// full-dataset memory; turn off for out-of-core runs that only need the
  /// release file + fingerprint.
  bool materialize_result = true;

  /// Audit the merged release with core/audit.h (requires
  /// materialize_result). Skipped — not assumed — when off.
  bool audit = true;

  MemoryBudget* memory = nullptr;               ///< optional, non-owning
  const CancellationToken* cancel = nullptr;    ///< optional, non-owning
};

/// Per-shard outcome.
struct ShardRunStats {
  size_t shard = 0;
  size_t rows = 0;
  double gcp = 0;  ///< shard-mean GCP (0 for transaction-only runs)
  /// Load, anonymize and materialize time, up to the anonymized dataset.
  /// Writing the shard's lines is not included: the checkpoint's head line
  /// records this time and is written before them. Resumed shards report
  /// the recorded time.
  double seconds = 0;
  bool resumed = false;
};

/// Outcome of a sharded run.
struct ShardedRunResult {
  ShardPlan plan;
  std::vector<ShardRunStats> shards;
  size_t resumed_shards = 0;

  /// Row-weighted mean of per-shard GCP.
  double weighted_gcp = 0;
  /// Sum of per-shard anonymize seconds (resumed shards contribute their
  /// originally recorded time).
  double anonymize_seconds = 0;
  /// Wall time of this call, including merge and audit.
  double total_seconds = 0;

  /// FNV-1a of the release CSV bytes (header line + '\n' + each record line
  /// + '\n', global row order). Equal for byte-identical releases no matter
  /// which backend, pool size or resume path produced them.
  uint64_t release_fingerprint = 0;
  size_t num_records = 0;

  /// The merged release, when options.materialize_result. Canonical bytes
  /// are the release CSV; this is a parsed view (used for auditing), whose
  /// own ToCsv() may order items within a transaction cell differently.
  std::optional<Dataset> merged;
  /// Audit of the merged guarantee, when options.audit.
  std::optional<AuditReport> audit;
};

/// Runs `config` over every shard of `provider` and merges the outputs.
Result<ShardedRunResult> RunShardedAnonymization(const ColumnProvider& provider,
                                                 const AlgorithmConfig& config,
                                                 const ShardedRunOptions& options);

}  // namespace secreta

#endif  // SECRETA_ENGINE_SHARDED_RUNNER_H_
