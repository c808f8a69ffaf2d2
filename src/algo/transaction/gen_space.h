// GenSpace: mutable global recoding where a generalized item is an arbitrary
// set of original items (the model of COAT [7] and PCTA [5], which do not use
// hierarchies). Supports merge and suppress operations with incremental
// support maintenance, and finds k^m violations from its per-gen row lists.

#ifndef SECRETA_ALGO_TRANSACTION_GEN_SPACE_H_
#define SECRETA_ALGO_TRANSACTION_GEN_SPACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/guarantees.h"
#include "core/results.h"
#include "data/dictionary.h"

namespace secreta {

/// \brief Mutable set-generalization state over a record subset.
class GenSpace {
 public:
  /// Starts at the identity recoding of `transactions` (one entry per record
  /// of the subset, original ItemIds). `item_dict` provides labels.
  GenSpace(std::vector<std::vector<ItemId>> transactions,
           const Dictionary& item_dict);

  /// Initializes from an existing global recoding instead of the identity
  /// (used by VPA to continue from the per-part hierarchy cuts). `recoding`
  /// must have a full item_map.
  GenSpace(std::vector<std::vector<ItemId>> transactions,
           const Dictionary& item_dict, const TransactionRecoding& recoding);

  size_t num_items() const { return item_dict_->size(); }
  size_t num_records() const { return original_.size(); }

  /// Current gen id of `item`, or kSuppressedGen.
  int32_t GenOf(ItemId item) const {
    return item_gen_[static_cast<size_t>(item)];
  }
  /// Covered items of gen `g` (sorted).
  const std::vector<ItemId>& Covers(int32_t g) const {
    return covers_[static_cast<size_t>(g)];
  }
  /// Number of records currently containing gen `g`.
  size_t Support(int32_t g) const { return support_[static_cast<size_t>(g)]; }
  /// True if gen `g` is still live (covers at least one item).
  bool IsLive(int32_t g) const {
    return !covers_[static_cast<size_t>(g)].empty();
  }
  /// Ids of all live gens, ascending (a merged gen takes the next id, so
  /// Merge appends it). Merge and Suppress keep the list; the reference
  /// stays valid, and its contents change with them.
  const std::vector<int32_t>& LiveGens() const { return live_; }

  /// Merges gens `a` and `b` into a new gen (union of covers); returns its
  /// id. a and b become dead. Rewrites just the rows of a and b.
  int32_t Merge(int32_t a, int32_t b);

  /// Suppresses gen `g`: its items disappear from every record. Rewrites
  /// just the rows of g.
  void Suppress(int32_t g);

  /// Itemsets of at most `m` live gens with support in (0, k), up to
  /// `max_violations`, smallest support first among those found
  /// (WalkKmViolations over the per-gen row lists), starting at the
  /// itemsets whose first gen is `from`. Pass 0, or the smallest itemset[0]
  /// among the last search's violations: a merge's gen takes the largest id
  /// and a suppression only removes gens, so neither makes an itemset
  /// violate whose first gen lies below that.
  std::vector<KmViolation> FindViolations(int m, int k, size_t max_violations,
                                          int32_t from = 0) const;

  /// Marginal utility-loss of merging `a` and `b` (increase in summed
  /// occurrence penalties, normalized by total original occurrences).
  double MergeCost(int32_t a, int32_t b) const;
  /// Marginal utility-loss of suppressing `g`.
  double SuppressCost(int32_t g) const;

  /// Number of records whose current generalized form contains every gen in
  /// `gens` (gens need not be live; dead gens yield 0). Computed from the
  /// per-gen row posting lists — a sorted-list intersection kernel call for
  /// pairs, probes from the rarest list otherwise — instead of scanning
  /// every record.
  size_t ItemsetSupport(const std::vector<int32_t>& gens) const;

  /// Sorted rows currently containing gen `g` (the posting list
  /// ItemsetSupport intersects, Merge and Suppress rewrite and
  /// FindViolations counts over; exposed for tests).
  const std::vector<uint32_t>& GenRows(int32_t g) const {
    return gen_rows_[static_cast<size_t>(g)];
  }

  /// Routes ItemsetSupport through the original full-record scan instead of
  /// the posting lists — the pre-kernel reference implementation, kept as the
  /// oracle for equivalence tests and A/B benchmarks. Value-identical.
  void set_use_reference_impl(bool on) { use_reference_impl_ = on; }

  /// Generalized records (sorted gen ids, one per subset record).
  const std::vector<std::vector<int32_t>>& records() const { return records_; }

  /// Exports the final TransactionRecoding (gens compacted to live ones).
  TransactionRecoding Export() const;

 private:
  void InitFromIdentity();
  /// Drops gen `g` from the live list.
  void DropLive(int32_t g);
  std::string LabelFor(const std::vector<ItemId>& covers) const;
  /// Occurrence count of gen `g`: total original item occurrences mapped to it.
  size_t Occurrences(int32_t g) const {
    return occurrences_[static_cast<size_t>(g)];
  }

  const Dictionary* item_dict_;
  std::vector<std::vector<ItemId>> original_;     // subset transactions
  std::vector<std::vector<int32_t>> records_;     // generalized form (sorted)
  std::vector<int32_t> item_gen_;                 // item -> gen / suppressed
  std::vector<std::vector<ItemId>> covers_;       // per gen
  std::vector<int32_t> live_;                     // ascending live gen ids
  std::vector<size_t> support_;                   // per gen: #records with gen
  std::vector<size_t> occurrences_;               // per gen: #item occurrences
  std::vector<std::vector<uint32_t>> gen_rows_;   // gen -> rows containing it
  bool use_reference_impl_ = false;
  size_t total_occurrences_ = 0;
  size_t suppressed_occurrences_ = 0;
};

}  // namespace secreta

#endif  // SECRETA_ALGO_TRANSACTION_GEN_SPACE_H_
