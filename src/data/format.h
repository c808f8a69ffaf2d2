// SBC1 — the SECRETA binary columnar dataset format. Normative byte-level
// spec: docs/FORMATS.md §"SBC1 binary columnar datasets"; this header is the
// reference implementation of that document, not the other way round.
//
// A file is written once by WriteBinaryDataset (the `convert` CLI verb) and
// then read shard-at-a-time through mmap windows by BinaryDatasetReader:
//
//   header            magic "SBC1", version, flags, counts, shard plan
//   schema block      attribute names/types/roles
//   dictionary pages  per-column value dictionaries (+ f64 tables for
//                     numeric columns), item dictionary with global
//                     per-item support counts
//   shard sections    per shard: global row ids, column-major cells,
//                     transaction CSR
//   footer            per-shard {offset, length, fingerprint}, logical
//                     content fingerprint, physical file fingerprint
//   trailer           footer offset/length + end magic (last 16 bytes)
//
// Dictionaries are global: a shard's cells reference the same ValueId/ItemId
// space regardless of partitioning, so algorithms see identical ids on every
// backend. All integers are little-endian; all multi-byte fields are
// unaligned (readers decode via common/bytes.h, never by pointer casts).

#ifndef SECRETA_DATA_FORMAT_H_
#define SECRETA_DATA_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/shard.h"

namespace secreta {

// -- format constants (see docs/FORMATS.md) -----------------------------------

inline constexpr uint32_t kSbcMagic = 0x31434253;       // "SBC1"
inline constexpr uint32_t kSbcShardMagic = 0x44524853;  // "SHRD"
inline constexpr uint32_t kSbcFooterMagic = 0x46434253; // "SBCF"
inline constexpr uint32_t kSbcEndMagic = 0x53424331;    // "1CBS"
inline constexpr uint16_t kSbcVersion = 1;
inline constexpr uint16_t kSbcFlagTransaction = 1u << 0;
/// Set by earlier writers, which appended per-value posting lists to every
/// shard section. Readers skip that block; nothing writes it any more.
inline constexpr uint16_t kSbcFlagLegacyPostings = 1u << 1;
inline constexpr size_t kSbcHeaderBytes = 40;
inline constexpr size_t kSbcTrailerBytes = 16;

/// Logical content fingerprint of a dataset: FNV-1a 64 over the canonical
/// CSV serialization (header + every cell + every transaction, in record
/// order). Identical for every backend that decodes to the same Dataset;
/// stored in the SBC1 footer and used to pin caches and checkpoints.
uint64_t DatasetContentFingerprint(const Dataset& dataset);

struct BinaryWriteOptions {
  ShardKind shard_kind = ShardKind::kRange;
  size_t num_shards = 1;
  uint64_t salt = 0;
};

/// Serializes `dataset` to an SBC1 file at `path` (atomic: written to a
/// temp file and renamed into place).
Status WriteBinaryDataset(const Dataset& dataset, const std::string& path,
                          const BinaryWriteOptions& options = {});

/// True if the file at `path` starts with the SBC1 magic (cheap sniff used
/// by `load` to pick a backend).
bool LooksLikeBinaryDataset(const std::string& path);

/// \brief Shard-at-a-time reader over an SBC1 file.
///
/// Open() maps the file once to parse header, schema, dictionaries and
/// footer (touching only those pages), then drops the mapping. ReadShard()
/// maps exactly one shard section, verifies its footer fingerprint,
/// materializes a Dataset carrying the global dictionaries, and unmaps —
/// peak resident memory is one shard window plus the decoded shard.
class BinaryDatasetReader {
 public:
  static Result<BinaryDatasetReader> Open(const std::string& path);

  const std::string& path() const { return path_; }
  const Schema& schema() const { return schema_; }
  size_t num_records() const { return num_records_; }
  size_t num_shards() const { return shard_offsets_.size(); }

  /// The partition the file was written with, made once by Open.
  const ShardPlan& plan() const { return plan_; }

  /// Global relational dictionaries, schema order.
  const std::vector<Dictionary>& dictionaries() const { return dictionaries_; }
  const Dictionary& item_dictionary() const { return item_dictionary_; }
  /// Global per-item record support (records containing the item), aligned
  /// with item_dictionary() ids. Feeds support-ordered item hierarchies
  /// without a full scan.
  const std::vector<uint64_t>& item_supports() const { return item_supports_; }

  /// Logical content fingerprint from the footer (== DatasetContentFingerprint
  /// of the decoded dataset).
  uint64_t content_fingerprint() const { return content_fingerprint_; }

  /// Materializes shard `s` as a Dataset with global dictionaries. Verifies
  /// the section fingerprint against the footer before decoding. Raw
  /// microdata: see the SECRETA_SENSITIVE contract in common/annotations.h.
  SECRETA_SENSITIVE Result<Dataset> ReadShard(size_t shard) const;

  /// Materializes the whole dataset in global record order (oracle/testing
  /// path — defeats the out-of-core property on purpose).
  SECRETA_SENSITIVE Result<Dataset> ReadAll() const;

  /// Re-hashes the physical bytes and checks both fingerprints in the
  /// footer (touches every page; used by tests and the fuzz harness).
  Status VerifyFile() const;

 private:
  /// Decodes one mapped shard section; every reader path parses sections
  /// through it. Optionally returns the section's global row ids.
  Result<Dataset> DecodeShard(size_t shard, const uint8_t* data, size_t size,
                              std::vector<uint32_t>* rows_out) const;

  std::string path_;
  Schema schema_;
  uint16_t flags_ = 0;
  size_t num_records_ = 0;
  ShardPlan plan_;
  std::vector<Dictionary> dictionaries_;
  std::vector<std::vector<double>> numeric_;
  Dictionary item_dictionary_;
  std::vector<uint64_t> item_supports_;
  std::vector<uint64_t> shard_offsets_;
  std::vector<uint64_t> shard_lengths_;
  std::vector<uint64_t> shard_fingerprints_;
  uint64_t content_fingerprint_ = 0;
  uint64_t file_fingerprint_ = 0;
  uint64_t footer_offset_ = 0;
};

}  // namespace secreta

#endif  // SECRETA_DATA_FORMAT_H_
