// Deterministic partitioning of a dataset's rows into shards. A ShardPlan is
// a pure function of (kind, num_records, num_shards, salt) — it never looks
// at cell values — so every backend (in-memory, CSV, binary/mmap) and every
// process derives the identical partition, which is what makes sharded runs
// byte-identical across backends and resumable from checkpoints.
//
//   kRange  shard s covers the contiguous block [floor(s·N/S), floor((s+1)·N/S))
//           — the out-of-core default: each shard is one contiguous file
//           section, mapped and unmapped as a window.
//   kHash   row r lands in shard SplitMix64(r ⊕ salt) mod S — decorrelates
//           shard membership from record order (e.g. time-sorted inputs).
//           Make buckets every row by shard once (4 bytes per record, shared
//           by copies of the plan), so listing or sizing a shard is as cheap
//           as for a range plan.
//
// Per-shard RNG seeds derive from the run seed via ShardSeed(); shard 0
// always receives the run seed itself, so a 1-shard plan reproduces the
// unsharded run byte-for-byte.

#ifndef SECRETA_DATA_SHARD_H_
#define SECRETA_DATA_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/csr.h"
#include "common/status.h"

namespace secreta {

enum class ShardKind { kRange, kHash };

const char* ShardKindName(ShardKind kind);

/// Inverse of ShardKindName ("range" / "hash"), for CLI and config parsing.
Result<ShardKind> ParseShardKind(std::string_view name);

/// \brief Deterministic row → shard assignment.
class ShardPlan {
 public:
  /// `num_shards` is clamped to [1, max(1, num_records)].
  static ShardPlan Make(ShardKind kind, size_t num_records, size_t num_shards,
                        uint64_t salt = 0);

  ShardKind kind() const { return kind_; }
  size_t num_records() const { return num_records_; }
  size_t num_shards() const { return num_shards_; }
  uint64_t salt() const { return salt_; }

  /// Shard owning global row `row` (< num_records()).
  size_t ShardOf(size_t row) const;

  /// Global row ids of shard `s`, ascending.
  std::vector<uint32_t> Rows(size_t shard) const;

  /// Cardinality of shard `s` without materializing its rows. O(1).
  size_t ShardSize(size_t shard) const;

  /// Stable identity of the partition (folded into checkpoint keys).
  uint64_t Fingerprint() const;

 private:
  ShardKind kind_ = ShardKind::kRange;
  size_t num_records_ = 0;
  size_t num_shards_ = 1;
  uint64_t salt_ = 0;
  /// Hash plans: shard -> its rows, ascending. Immutable, so copies share it.
  std::shared_ptr<const Csr> hash_rows_;
};

/// Per-shard RNG seed: shard 0 keeps `run_seed` (1-shard == unsharded),
/// later shards get a decorrelated but deterministic derivation.
uint64_t ShardSeed(uint64_t run_seed, size_t shard);

}  // namespace secreta

#endif  // SECRETA_DATA_SHARD_H_
