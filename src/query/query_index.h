// Query acceleration structures built once per dataset: posting lists in CSR
// layout (key -> ascending record ids), one per relational column (keyed by
// value) and one for the transaction attribute (keyed by item). A bound
// clause turns its matching values' posting lists into a record selection
// bitmap; ExactCount then reduces to a fused AND+popcount kernel call and an
// itemset clause to a merge of the items' lists — no full dataset scans.
// EstimatedCount reuses the same bitmaps to enumerate candidate records and
// memoizes hierarchy leaf-overlap probabilities per (clause, node), so
// records sharing a recoding node pay the lookup once.

#ifndef SECRETA_QUERY_QUERY_INDEX_H_
#define SECRETA_QUERY_QUERY_INDEX_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace secreta {

/// \brief Fixed-size bitmap over the records of one dataset.
///
/// Count() memoizes the cardinality (mutating ops invalidate it), so repeated
/// counts of a shared const bitmap — the bound-workload hot path — cost one
/// atomic load instead of a popcount sweep.
class RecordBitmap {
 public:
  RecordBitmap() = default;
  /// `ones` = true starts with every record selected (tail bits stay clear).
  explicit RecordBitmap(size_t num_records, bool ones = false);

  RecordBitmap(const RecordBitmap& other)
      : num_records_(other.num_records_),
        words_(other.words_),
        cached_count_(other.cached_count_.load(std::memory_order_relaxed)) {}
  RecordBitmap(RecordBitmap&& other) noexcept
      : num_records_(other.num_records_),
        words_(std::move(other.words_)),
        cached_count_(other.cached_count_.load(std::memory_order_relaxed)) {}
  RecordBitmap& operator=(const RecordBitmap& other) {
    num_records_ = other.num_records_;
    words_ = other.words_;
    cached_count_.store(other.cached_count_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }
  RecordBitmap& operator=(RecordBitmap&& other) noexcept {
    num_records_ = other.num_records_;
    words_ = std::move(other.words_);
    cached_count_.store(other.cached_count_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }

  size_t num_records() const { return num_records_; }
  bool empty() const { return num_records_ == 0; }

  void Set(size_t record) {
    words_[record >> 6] |= uint64_t{1} << (record & 63);
    cached_count_.store(kUnknownCount, std::memory_order_relaxed);
  }
  bool Test(size_t record) const {
    return (words_[record >> 6] >> (record & 63)) & 1;
  }

  /// In-place intersection; `other` must cover the same record count.
  void AndWith(const RecordBitmap& other);

  /// Number of selected records. Cached after the first call; concurrent
  /// const callers may each compute it once (idempotent relaxed store).
  size_t Count() const;

  /// |a ∩ b| without materializing: one fused kernel pass over the words.
  static size_t AndCount(const RecordBitmap& a, const RecordBitmap& b);

  const std::vector<uint64_t>& words() const { return words_; }

  /// Calls fn(record) for every selected record in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(bits));
        fn((w << 6) + bit);
        bits &= bits - 1;
      }
    }
  }

 private:
  static constexpr uint64_t kUnknownCount = ~uint64_t{0};

  size_t num_records_ = 0;
  std::vector<uint64_t> words_;
  mutable std::atomic<uint64_t> cached_count_{kUnknownCount};
};

/// \brief Immutable per-dataset inverted indexes (relational + items).
///
/// Non-owning of the dataset; build once and share (thread-safe const reads).
class QueryIndex {
 public:
  /// Indexes every relational column and the item domain of `dataset`.
  static QueryIndex Build(const Dataset& dataset);

  size_t num_records() const { return num_records_; }

  /// Sorted record ids holding value `id` in relational column `col`.
  const uint32_t* postings(size_t col, ValueId id, size_t* out_size) const {
    return columns_[col].List(static_cast<size_t>(id), out_size);
  }

  /// Sorted record ids whose transaction contains `item`.
  const uint32_t* item_postings(ItemId item, size_t* out_size) const {
    return items_.List(static_cast<size_t>(item), out_size);
  }

  /// Bitmap of records matching a value disjunction on `col`: the union of
  /// the matching values' posting lists. `match` is indexed by ValueId.
  RecordBitmap ClauseBitmap(size_t col, const std::vector<char>& match) const;

  /// Sorted record ids containing every item of `items` (sorted ItemIds):
  /// the intersection of the items' posting lists, merged rarest first.
  std::vector<uint32_t> ItemIntersection(const std::vector<ItemId>& items) const;

 private:
  /// Posting lists of one attribute: key k's records are
  /// records[offsets[k], offsets[k + 1]).
  struct Csr {
    std::vector<size_t> offsets;    // per key, size = domain + 1
    std::vector<uint32_t> records;  // grouped by key, ascending within

    /// Counting sort over keys [0, domain): `keys_of(r, add)` calls add(key)
    /// for every key record r holds.
    template <typename KeysOf>
    static Csr Build(size_t num_records, size_t domain, KeysOf keys_of);

    const uint32_t* List(size_t key, size_t* out_size) const {
      *out_size = offsets[key + 1] - offsets[key];
      return records.data() + offsets[key];
    }
  };

  size_t num_records_ = 0;
  std::vector<Csr> columns_;
  Csr items_;
};

}  // namespace secreta

#endif  // SECRETA_QUERY_QUERY_INDEX_H_
