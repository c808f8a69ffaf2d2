#include "algo/transaction/vpa.h"

#include <algorithm>

#include "algo/transaction/apriori.h"
#include "algo/transaction/coat.h"
#include "algo/transaction/gen_space.h"
#include "obs/trace.h"

namespace secreta {

namespace {

// One vertical part: a contiguous leaf-position interval aligned with whole
// root-child subtrees.
struct Part {
  int32_t begin = 0;
  int32_t end = 0;
};

std::vector<Part> SplitDomain(const Hierarchy& h, int requested_parts) {
  const auto& children = h.children(h.root());
  size_t parts = std::min<size_t>(static_cast<size_t>(requested_parts),
                                  std::max<size_t>(children.size(), 1));
  std::vector<Part> out;
  if (children.empty()) {
    out.push_back({0, static_cast<int32_t>(h.num_leaves())});
    return out;
  }
  size_t per_part = (children.size() + parts - 1) / parts;
  for (size_t begin = 0; begin < children.size(); begin += per_part) {
    size_t end = std::min(begin + per_part, children.size());
    out.push_back({h.leaf_interval_begin(children[begin]),
                   h.leaf_interval_end(children[end - 1])});
  }
  return out;
}

}  // namespace

Result<TransactionRecoding> VpaAnonymizer::AnonymizeSubset(
    const TransactionContext& context, const std::vector<size_t>& subset,
    const AnonParams& params) {
  SECRETA_TRACE_SPAN("algo.Vpa");
  SECRETA_RETURN_IF_ERROR(params.Validate());
  if (!context.has_hierarchy()) {
    return Status::FailedPrecondition("VPA requires an item hierarchy");
  }
  const Hierarchy& h = context.hierarchy();
  std::vector<Part> parts = SplitDomain(h, params.vpa_parts);
  HierarchyCut cut(context);
  // Phase 1: per-part AA, raising only inside the part (min_depth 1 keeps
  // every raise strictly below the root, and parts are unions of root-child
  // subtrees, so a raise never crosses a part boundary). A size whose
  // violation cannot be raised away leaves its residue for phase 2.
  for (const Part& part : parts) {
    AprioriLoop loop(&cut, subset, part.begin, part.end);
    for (int i = 1; i <= params.m; ++i) {
      SECRETA_RETURN_IF_ERROR(
          loop.RunSize(i, params.k, /*min_depth=*/1, cancel_).status());
    }
  }
  // Phase 2: global repair. Cross-part itemsets (and any per-part residue)
  // are fixed by merging generalized items in set space.
  std::vector<std::vector<ItemId>> txns;
  txns.reserve(subset.size());
  for (size_t row : subset) txns.push_back(context.dataset().items(row).raw());
  GenSpace space(std::move(txns), context.dataset().item_dictionary(),
                 cut.Materialize(subset).recoding);
  UtilityPolicy unrestricted =
      UtilityPolicy::Unrestricted(context.num_items());
  int32_t from = 0;
  while (true) {
    SECRETA_RETURN_IF_ERROR(CheckCancel("vpa repair"));
    auto violations = space.FindViolations(params.m, params.k, 1, from);
    if (violations.empty()) break;
    from = violations[0].itemset[0];
    SECRETA_RETURN_IF_ERROR(FixItemsetSupport(
        &space, violations[0].itemset, params.k, &unrestricted,
        /*prefer_global_cheapest=*/true));
  }
  return space.Export();
}

}  // namespace secreta
