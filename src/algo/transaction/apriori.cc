#include "algo/transaction/apriori.h"

#include <algorithm>
#include <iterator>

#include "algo/transaction/violation_walk.h"
#include "metrics/information_loss.h"
#include "obs/trace.h"

namespace secreta {

AprioriLoop::AprioriLoop(HierarchyCut* cut, const std::vector<size_t>& subset,
                         int32_t leaf_begin, int32_t leaf_end)
    : cut_(cut), subset_(&subset) {
  const TransactionContext& context = cut->context();
  const Hierarchy& h = context.hierarchy();
  key_of_item_.assign(context.num_items(), -1);
  for (size_t item = 0; item < key_of_item_.size(); ++item) {
    auto id = static_cast<ItemId>(item);
    int32_t pos = h.leaf_interval_begin(context.Leaf(id));
    if (pos >= leaf_begin && pos < leaf_end) {
      key_of_item_[item] = cut->FirstItemUnder(cut->NodeOf(id));
    }
  }
  records_.resize(subset.size());
  key_rows_.resize(context.num_items());
  for (size_t j = 0; j < subset.size(); ++j) {
    Rekey(j);
    for (int32_t key : records_[j]) {
      key_rows_[static_cast<size_t>(key)].push_back(static_cast<uint32_t>(j));
    }
  }
}

void AprioriLoop::Rekey(size_t j) {
  std::vector<int32_t>& rec = records_[j];
  rec.clear();
  for (ItemId item : cut_->context().dataset().items((*subset_)[j]).raw()) {
    int32_t key = key_of_item_[static_cast<size_t>(item)];
    if (key >= 0) rec.push_back(key);
  }
  std::sort(rec.begin(), rec.end());
  rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
}

void AprioriLoop::Raise(NodeId target) {
  const TransactionContext& context = cut_->context();
  const Hierarchy& h = context.hierarchy();
  const int32_t key = cut_->FirstItemUnder(target);
  // The records holding a key the raise replaces. Items of one cut node
  // share its key, whose rows the first of them moves and clears.
  std::vector<uint32_t> moved;
  for (int32_t pos = h.leaf_interval_begin(target);
       pos < h.leaf_interval_end(target); ++pos) {
    ItemId item = context.ItemOfLeaf(h.leaves()[static_cast<size_t>(pos)]);
    if (item < 0) continue;
    int32_t& item_key = key_of_item_[static_cast<size_t>(item)];
    if (item_key == key) continue;
    std::vector<uint32_t>& rows = key_rows_[static_cast<size_t>(item_key)];
    moved.insert(moved.end(), rows.begin(), rows.end());
    rows.clear();
    item_key = key;
  }
  cut_->RaiseTo(target);
  std::sort(moved.begin(), moved.end());
  moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
  std::vector<uint32_t>& rows = key_rows_[static_cast<size_t>(key)];
  std::vector<uint32_t> merged;
  merged.reserve(rows.size() + moved.size());
  std::set_union(rows.begin(), rows.end(), moved.begin(), moved.end(),
                 std::back_inserter(merged));
  rows = std::move(merged);
  for (uint32_t j : moved) Rekey(j);
}

Result<bool> AprioriLoop::RunSize(int size, int k, int min_depth,
                                  const CancellationToken* cancel) {
  const Hierarchy& h = cut_->context().hierarchy();
  // Every itemset whose first key lies below `from` has support 0 or >= k.
  int32_t from = 0;
  while (true) {
    SECRETA_RETURN_IF_ERROR(CheckCancelled(cancel, "apriori raise"));
    auto violations = WalkKmViolations(key_rows_, records_, size, k, 1, from);
    if (violations.empty()) return true;
    const std::vector<int32_t>& itemset = violations[0].itemset;
    // Candidate raises: the distinct cut nodes of the violating itemset
    // that are still below the raise ceiling.
    NodeId best_target = kNoNode;
    double best_cost = 0;
    for (int32_t key : itemset) {
      NodeId node = cut_->NodeOf(key);
      if (h.depth(node) <= min_depth) continue;  // cannot raise further
      NodeId parent = h.parent(node);
      double cost = NodeNcp(h, parent);
      if (best_target == kNoNode || cost < best_cost) {
        best_target = parent;
        best_cost = cost;
      }
    }
    // Every node of the violating itemset is at the ceiling.
    if (best_target == kNoNode) return false;
    Raise(best_target);
    // Resume below the violation when the raise's key is smaller. After the
    // raise, an itemset whose first key lies below both either holds no
    // replaced key, so its support is unchanged (or 0 if it holds a retired
    // key), or holds the raise's key, so its rows are the union of the rows
    // of the same itemset with each merged key in its place. Those itemsets
    // start below the violation too, so each had support 0 or >= k, and so
    // does their union.
    from = std::min(itemset[0], cut_->FirstItemUnder(best_target));
  }
}

Status RunAprioriLoop(HierarchyCut* cut, const std::vector<size_t>& subset,
                      int k, int m, const CancellationToken* cancel) {
  auto num_leaves =
      static_cast<int32_t>(cut->context().hierarchy().num_leaves());
  AprioriLoop loop(cut, subset, 0, num_leaves);
  for (int i = 1; i <= m; ++i) {
    SECRETA_ASSIGN_OR_RETURN(bool done,
                             loop.RunSize(i, k, /*min_depth=*/0, cancel));
    if (!done) {
      cut->SuppressAll();
      break;
    }
  }
  return Status::OK();
}

Result<TransactionRecoding> AprioriAnonymizer::AnonymizeSubset(
    const TransactionContext& context, const std::vector<size_t>& subset,
    const AnonParams& params) {
  SECRETA_TRACE_SPAN("algo.Apriori");
  SECRETA_RETURN_IF_ERROR(params.Validate());
  if (!context.has_hierarchy()) {
    return Status::FailedPrecondition("Apriori requires an item hierarchy");
  }
  HierarchyCut cut(context);
  SECRETA_RETURN_IF_ERROR(
      RunAprioriLoop(&cut, subset, params.k, params.m, cancel_));
  return std::move(cut.Materialize(subset).recoding);
}

}  // namespace secreta
