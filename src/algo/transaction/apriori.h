// Apriori Anonymization (AA) of Terrovitis et al. [10]: k^m-anonymity by
// global full-subtree generalization over the item hierarchy. For each
// itemset size i = 1..m, repeatedly finds an i-itemset with support in
// (0, k) and raises the cheapest cut node involved, until no violation
// remains.

#ifndef SECRETA_ALGO_TRANSACTION_APRIORI_H_
#define SECRETA_ALGO_TRANSACTION_APRIORI_H_

#include <cstdint>
#include <vector>

#include "algo/transaction/cut.h"
#include "core/algorithm.h"

namespace secreta {

class AprioriAnonymizer : public TransactionAnonymizer {
 public:
  std::string name() const override { return "Apriori"; }
  bool requires_hierarchy() const override { return true; }

  Result<TransactionRecoding> AnonymizeSubset(
      const TransactionContext& context, const std::vector<size_t>& subset,
      const AnonParams& params) override;
};

/// \brief The AA loop shared by Apriori, LRA and VPA: the generalized
/// records of one subset, kept in step with a HierarchyCut across raises.
///
/// Each record is the sorted set of its items' keys, a key being the
/// smallest item id under the item's cut node (HierarchyCut::FirstItemUnder).
/// Recode numbers gens in that same order, so WalkKmViolations over keys
/// finds the first violation of a walk over gen ids. Each key keeps the
/// ascending records holding it. A raise to T changes no key outside T and
/// gives every item under T the key T already has: the rows of each key it
/// replaces move into T's key as a sorted union, and just those records are
/// rekeyed. Only items whose leaf position lies in [leaf_begin, leaf_end)
/// are counted: VPA's part, or the whole domain; raises stay inside it.
/// `cut` and `subset` must outlive the loop.
class AprioriLoop {
 public:
  AprioriLoop(HierarchyCut* cut, const std::vector<size_t>& subset,
              int32_t leaf_begin, int32_t leaf_end);

  /// AA for itemset size `size`: while some itemset of size <= `size` has
  /// support in (0, k), raises the cheapest parent of its cut nodes that
  /// stays below depth `min_depth` (0 allows the root; VPA uses 1 to stay
  /// inside the root's child subtrees). Returns false when a violation is
  /// left whose nodes are all at that ceiling; the raises made stay in the
  /// cut. `cancel` (may be null) is polled once per raise.
  Result<bool> RunSize(int size, int k, int min_depth,
                       const CancellationToken* cancel);

 private:
  // Raises the cut to `target`, moving the replaced keys' rows into its key
  // and rekeying the records that held them.
  void Raise(NodeId target);
  // Recomputes records_[j] from its items' current keys.
  void Rekey(size_t j);

  HierarchyCut* cut_;
  const std::vector<size_t>* subset_;
  /// Key of each item, -1 for an item outside [leaf_begin, leaf_end).
  std::vector<int32_t> key_of_item_;
  /// records_[j]: sorted distinct keys of subset[j]'s counted items.
  std::vector<std::vector<int32_t>> records_;
  /// key_rows_[key]: ascending subset indices of the records holding `key`;
  /// empty for a key no cut node has any more.
  std::vector<std::vector<uint32_t>> key_rows_;
};

/// \brief AA over `subset` for Apriori and LRA: AprioriLoop::RunSize for
/// sizes 1..m with the root allowed. When a violation persists with every
/// involved node at the root, suppresses all items, which keeps the
/// guarantee. `cancel` (may be null) is polled once per raise.
Status RunAprioriLoop(HierarchyCut* cut, const std::vector<size_t>& subset,
                      int k, int m,
                      const CancellationToken* cancel = nullptr);

}  // namespace secreta

#endif  // SECRETA_ALGO_TRANSACTION_APRIORI_H_
