// Partitioned, out-of-core anonymization: run one algorithm
// configuration independently over every shard of a ShardPlan, then merge
// the per-shard outputs into a single release in original row order.
//
// Shards run one at a time. Each is materialized through a ColumnProvider
// (one mmap window for SBC1 files), anonymized with the standard engine
// (RunAnonymization; only the algorithms' own pool work fans out, which
// for relational Incognito is its per-level lattice scan), turned into its
// anonymized Dataset from ids (BuildAnonymizedDataset), and written as
// release lines straight from that dataset's ids (Dataset::AppendCsvLine).
// The lines are appended to a ShardCheckpoint so interrupted runs resume
// byte-identically. Spans:
// shard.load, shard.anonymize, shard.materialize (dataset and lines) and
// shard.checkpoint per computed shard, one shard.merge per run.
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
//   * the merged release still satisfies the privacy guarantee: every
//     equivalence class of the concatenation is a class of some shard, so
//     per-shard k (and k^m) survive the union — re-checked for real with
//     core/audit.h rather than assumed.
//
// The merged release is defined by its CSV bytes (header + one line per
// record, global row order); `release_fingerprint` is the FNV-1a of exactly
// those bytes. Range plans merge shard-at-a-time (payloads stream from the
// checkpoint), so peak residency stays one shard plus the open output
// stream; hash plans must gather all rows to restore row order and are
// documented as not out-of-core at merge time.

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
  /// finished shards are skipped on restart and merged from disk instead of
  /// being held in memory. Empty: outputs stay in memory (small runs).
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
  double gcp = 0;      ///< shard-mean GCP (0 for transaction-only runs)
  double seconds = 0;  ///< anonymize+materialize time (0 when resumed)
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
