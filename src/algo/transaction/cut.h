// HierarchyCut: the mutable state of full-subtree global recoding over an
// item hierarchy (Apriori/LRA/VPA of Terrovitis et al. [10]). A cut maps each
// leaf to one ancestor; raising the cut generalizes items.

#ifndef SECRETA_ALGO_TRANSACTION_CUT_H_
#define SECRETA_ALGO_TRANSACTION_CUT_H_

#include <vector>

#include "core/context.h"
#include "core/results.h"

namespace secreta {

/// The generalized transactions of a record subset under a cut, with the gen
/// numbering Materialize exports. Reusing one across Recode calls keeps its
/// buffers' capacity.
struct CutRecords {
  /// records[j]: sorted gen ids of subset[j]'s items.
  std::vector<std::vector<int32_t>> records;
  /// Hierarchy node of each gen id.
  std::vector<NodeId> gen_nodes;
  /// Gen id of each item (kSuppressedGen for every item after SuppressAll).
  std::vector<int32_t> item_gen;
};

/// Materialized view of a cut over a record subset.
struct CutRecoding {
  TransactionRecoding recoding;
  /// Hierarchy node of each gen in `recoding.gens`.
  std::vector<NodeId> gen_nodes;
};

/// \brief A full-subtree generalization cut over the item hierarchy.
class HierarchyCut {
 public:
  /// Starts with every leaf mapped to itself (identity recoding).
  explicit HierarchyCut(const TransactionContext& context);

  /// Replaces every cut node under `target` with `target` (raising the cut).
  void RaiseTo(NodeId target);

  /// Current cut node covering `item`.
  NodeId NodeOf(ItemId item) const;

  /// Smallest item id under `node`, fixed by the hierarchy (-1 when no item
  /// lies under it). Distinct cut nodes have distinct first items, and
  /// Recode numbers cut nodes in their order; the AA loops key gens by it.
  ItemId FirstItemUnder(NodeId node) const {
    return first_item_under_[static_cast<size_t>(node)];
  }

  /// True if all items are suppressed (total-suppression fallback for the
  /// degenerate case where even the root generalization violates k^m).
  bool suppressed() const { return suppress_all_; }
  void SuppressAll() { suppress_all_ = true; }

  /// Recodes `subset` under the current cut into `out`, reusing its buffers.
  /// Every cut node over the item domain gets a gen id, in order of first
  /// use over item ids, whether or not `subset` holds one of its items. This
  /// is the only place gen ids are assigned.
  void Recode(const std::vector<size_t>& subset, CutRecords* out) const;

  /// Recode plus what a returned recoding needs: each gen's label and
  /// sorted covers, the item_map (global recoding) and the count of
  /// suppressed occurrences. `recoding.records[j]` corresponds to subset[j];
  /// like Recode's, the gen pool holds every cut node over the item domain.
  CutRecoding Materialize(const std::vector<size_t>& subset) const;

  const TransactionContext& context() const { return *context_; }

 private:
  const TransactionContext* context_;
  /// Current cut node for each leaf DFS position.
  std::vector<NodeId> node_of_pos_;
  /// Smallest item id under each node (fixed by the hierarchy): Recode gives
  /// a cut node its gen id at this item.
  std::vector<ItemId> first_item_under_;
  bool suppress_all_ = false;
};

}  // namespace secreta

#endif  // SECRETA_ALGO_TRANSACTION_CUT_H_
