#include "algo/transaction/apriori.h"

#include <algorithm>

#include "metrics/information_loss.h"
#include "obs/trace.h"

namespace secreta {

AprioriLoop::AprioriLoop(HierarchyCut* cut, const std::vector<size_t>& subset,
                         int32_t leaf_begin, int32_t leaf_end)
    : cut_(cut), subset_(&subset), leaf_begin_(leaf_begin) {
  const TransactionContext& context = cut->context();
  const Hierarchy& h = context.hierarchy();
  const Dataset& data = context.dataset();
  auto pos_of = [&](ItemId item) {
    return h.leaf_interval_begin(context.Leaf(item));
  };
  key_of_item_.assign(context.num_items(), -1);
  for (size_t item = 0; item < key_of_item_.size(); ++item) {
    int32_t pos = pos_of(static_cast<ItemId>(item));
    if (pos >= leaf_begin && pos < leaf_end) {
      key_of_item_[item] =
          cut->FirstItemUnder(cut->NodeOf(static_cast<ItemId>(item)));
    }
  }
  const auto num_positions = static_cast<size_t>(leaf_end - leaf_begin);
  rows_ = Csr::Build(num_positions, [&](auto emit) {
    for (size_t j = 0; j < subset.size(); ++j) {
      for (ItemId item : data.items(subset[j]).raw()) {
        if (key_of_item_[static_cast<size_t>(item)] < 0) continue;
        emit(static_cast<size_t>(pos_of(item) - leaf_begin),
             static_cast<uint32_t>(j));
      }
    }
  });
  records_.resize(subset.size());
  for (size_t j = 0; j < subset.size(); ++j) Rekey(j);
  stamp_.assign(subset.size(), 0);
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

void AprioriLoop::Raise(NodeId target, CountTree* tree) {
  const TransactionContext& context = cut_->context();
  const Hierarchy& h = context.hierarchy();
  int32_t key = cut_->FirstItemUnder(target);
  ++epoch_;
  changed_.clear();
  for (int32_t pos = h.leaf_interval_begin(target);
       pos < h.leaf_interval_end(target); ++pos) {
    ItemId item = context.ItemOfLeaf(h.leaves()[static_cast<size_t>(pos)]);
    if (item < 0 || key_of_item_[static_cast<size_t>(item)] == key) continue;
    key_of_item_[static_cast<size_t>(item)] = key;
    for (uint32_t j : rows_[static_cast<size_t>(pos - leaf_begin_)]) {
      if (stamp_[j] == epoch_) continue;
      stamp_[j] = epoch_;
      changed_.push_back(j);
    }
  }
  cut_->RaiseTo(target);
  std::vector<int32_t> before;
  for (uint32_t j : changed_) {
    before.swap(records_[j]);
    Rekey(j);
    tree->Replace(before, records_[j]);
  }
}

Result<bool> AprioriLoop::RunSize(int size, int k, int min_depth,
                                  ThreadPool* pool,
                                  const CancellationToken* cancel) {
  const Hierarchy& h = cut_->context().hierarchy();
  // Count-tree support counting ([10] Sec. 5), kept across the raises.
  CountTree tree(records_, size, pool);
  while (true) {
    SECRETA_RETURN_IF_ERROR(CheckCancelled(cancel, "apriori raise"));
    auto violations = tree.FindViolations(k, 1);
    if (violations.empty()) return true;
    // Candidate raises: the distinct cut nodes of the violating itemset
    // that are still below the raise ceiling.
    NodeId best_target = kNoNode;
    double best_cost = 0;
    for (int32_t key : violations[0].itemset) {
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
    Raise(best_target, &tree);
  }
}

Status RunAprioriLoop(HierarchyCut* cut, const std::vector<size_t>& subset,
                      int k, int m, ThreadPool* pool,
                      const CancellationToken* cancel) {
  auto num_leaves =
      static_cast<int32_t>(cut->context().hierarchy().num_leaves());
  AprioriLoop loop(cut, subset, 0, num_leaves);
  for (int i = 1; i <= m; ++i) {
    SECRETA_ASSIGN_OR_RETURN(bool done,
                             loop.RunSize(i, k, /*min_depth=*/0, pool, cancel));
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
      RunAprioriLoop(&cut, subset, params.k, params.m, pool_, cancel_));
  return std::move(cut.Materialize(subset).recoding);
}

}  // namespace secreta
