#include "algo/transaction/apriori.h"

#include <algorithm>

#include "algo/transaction/count_tree.h"
#include "metrics/information_loss.h"
#include "obs/trace.h"

namespace secreta {

Result<bool> RunAprioriLoop(HierarchyCut* cut, const std::vector<size_t>& subset,
                            int k, int m, int min_depth,
                            bool suppress_on_failure, ThreadPool* pool,
                            const CancellationToken* cancel) {
  const Hierarchy& h = cut->context().hierarchy();
  CutRecords view;
  for (int i = 1; i <= m; ++i) {
    while (true) {
      SECRETA_RETURN_IF_ERROR(CheckCancelled(cancel, "apriori raise"));
      cut->Recode(subset, &view);
      // Count-tree support counting ([10] Sec. 5); one pass per iteration.
      CountTree tree(view.records, i, pool);
      auto violations = tree.FindViolations(k, 1);
      if (violations.empty()) break;
      // Candidate raises: the distinct cut nodes of the violating itemset
      // that are still below the raise ceiling.
      NodeId best_target = kNoNode;
      double best_cost = 0;
      for (int32_t gen : violations[0].itemset) {
        NodeId node = view.gen_nodes[static_cast<size_t>(gen)];
        if (h.depth(node) <= min_depth) continue;  // cannot raise further
        NodeId parent = h.parent(node);
        double cost = NodeNcp(h, parent);
        if (best_target == kNoNode || cost < best_cost) {
          best_target = parent;
          best_cost = cost;
        }
      }
      if (best_target == kNoNode) {
        // Every node of the violating itemset is at the ceiling.
        if (suppress_on_failure) {
          cut->SuppressAll();
          return true;
        }
        return false;
      }
      cut->RaiseTo(best_target);
    }
  }
  return true;
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
  SECRETA_ASSIGN_OR_RETURN(
      bool done, RunAprioriLoop(&cut, subset, params.k, params.m,
                                /*min_depth=*/0, /*suppress_on_failure=*/true,
                                pool_, cancel_));
  (void)done;  // with suppress_on_failure the loop always succeeds
  return std::move(cut.Materialize(subset).recoding);
}

}  // namespace secreta
