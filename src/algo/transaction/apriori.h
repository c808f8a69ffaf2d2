// Apriori Anonymization (AA) of Terrovitis et al. [10]: k^m-anonymity by
// global full-subtree generalization over the item hierarchy. For each
// itemset size i = 1..m, repeatedly finds an i-itemset with support in
// (0, k) and raises the cheapest cut node involved, until no violation
// remains.

#ifndef SECRETA_ALGO_TRANSACTION_APRIORI_H_
#define SECRETA_ALGO_TRANSACTION_APRIORI_H_

#include <cstdint>
#include <vector>

#include "algo/transaction/count_tree.h"
#include "algo/transaction/cut.h"
#include "common/csr.h"
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
/// Recode numbers gens in that same order, so a count tree over keys has the
/// shape, DFS order and first violation of one over gen ids. A raise to T
/// changes no key outside T and gives every item under T the key T already
/// has, so only the records holding an item under T with another key change.
/// The loop recounts just those, and of each just the itemsets holding a key
/// the raise removed or added (CountTree::Replace). Only items whose leaf
/// position lies in [leaf_begin, leaf_end) are counted: VPA's part, or the
/// whole domain.
/// `cut` and `subset` must outlive the loop.
class AprioriLoop {
 public:
  AprioriLoop(HierarchyCut* cut, const std::vector<size_t>& subset,
              int32_t leaf_begin, int32_t leaf_end);

  /// AA for itemset size `size`: builds the size's count tree (over `pool`,
  /// which may be null), then, while some itemset of size <= `size` has
  /// support in (0, k), raises the cheapest parent of its cut nodes that
  /// stays below depth `min_depth` (0 allows the root; VPA uses 1 to stay
  /// inside the root's child subtrees). Returns false when a violation is
  /// left whose nodes are all at that ceiling; the raises made stay in the
  /// cut. `cancel` (may be null) is polled once per raise.
  Result<bool> RunSize(int size, int k, int min_depth, ThreadPool* pool,
                       const CancellationToken* cancel);

 private:
  // Raises the cut to `target` and moves `tree` along with the records
  // whose keys change.
  void Raise(NodeId target, CountTree* tree);
  // Recomputes records_[j] from its items' current keys.
  void Rekey(size_t j);

  HierarchyCut* cut_;
  const std::vector<size_t>* subset_;
  int32_t leaf_begin_;
  /// Key of each item, -1 for an item outside [leaf_begin, leaf_end).
  std::vector<int32_t> key_of_item_;
  /// records_[j]: sorted distinct keys of subset[j]'s counted items.
  std::vector<std::vector<int32_t>> records_;
  /// Leaf position (minus leaf_begin) -> the subset indices of the records
  /// holding that position's item.
  Csr rows_;
  /// Per-record stamp of the last raise that changed it, and that raise's
  /// changed records.
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> changed_;
};

/// \brief AA over `subset` for Apriori and LRA: AprioriLoop::RunSize for
/// sizes 1..m with the root allowed. When a violation persists with every
/// involved node at the root, suppresses all items, which keeps the
/// guarantee. `pool` (may be null) parallelizes each size's count-tree
/// build; `cancel` (may be null) is polled once per raise.
Status RunAprioriLoop(HierarchyCut* cut, const std::vector<size_t>& subset,
                      int k, int m, ThreadPool* pool = nullptr,
                      const CancellationToken* cancel = nullptr);

}  // namespace secreta

#endif  // SECRETA_ALGO_TRANSACTION_APRIORI_H_
