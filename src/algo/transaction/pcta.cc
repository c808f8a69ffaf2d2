#include "algo/transaction/pcta.h"

#include <algorithm>

#include "algo/transaction/coat.h"
#include "obs/trace.h"

namespace secreta {

Result<TransactionRecoding> PctaAnonymizer::AnonymizeSubset(
    const TransactionContext& context, const std::vector<size_t>& subset,
    const AnonParams& params) {
  SECRETA_TRACE_SPAN("algo.Pcta");
  SECRETA_RETURN_IF_ERROR(params.Validate());
  std::vector<std::vector<ItemId>> txns;
  txns.reserve(subset.size());
  for (size_t row : subset) txns.push_back(context.dataset().items(row).raw());
  GenSpace space(std::move(txns), context.dataset().item_dictionary());
  space.set_use_reference_impl(use_reference_impl_);
  UtilityPolicy unrestricted;
  const UtilityPolicy* utility = &utility_;
  if (utility_.empty()) {
    unrestricted = UtilityPolicy::Unrestricted(context.num_items());
    utility = &unrestricted;
  }
  if (privacy_.empty()) {
    // k^m mode: repeatedly address the most fragile violation. Each search
    // resumes at the smallest first gen of the last search's violations
    // (GenSpace::FindViolations): the first one found, not the most fragile.
    int32_t from = 0;
    while (true) {
      SECRETA_RETURN_IF_ERROR(CheckCancel("pcta iteration"));
      auto violations = space.FindViolations(
          params.m, params.k, /*max_violations=*/16, from);
      if (violations.empty()) break;
      const KmViolation* fragile = &violations[0];
      from = violations[0].itemset[0];
      for (const auto& v : violations) {
        if (v.support < fragile->support) fragile = &v;
        from = std::min(from, v.itemset[0]);
      }
      SECRETA_RETURN_IF_ERROR(FixItemsetSupport(
          &space, fragile->itemset, params.k, utility,
          /*prefer_global_cheapest=*/true));
    }
  } else {
    while (true) {
      // Most fragile violated constraint first.
      int best_k = 0;
      size_t best_support = 0;
      std::vector<int32_t> best_gens;
      bool found = false;
      for (const auto& constraint : privacy_.constraints) {
        int k = constraint.k > 0 ? constraint.k : params.k;
        std::vector<int32_t> gens;
        bool suppressed = false;
        for (ItemId item : constraint.items) {
          int32_t g = space.GenOf(item);
          if (g == kSuppressedGen) {
            suppressed = true;
            break;
          }
          gens.push_back(g);
        }
        if (suppressed) continue;
        size_t support = space.ItemsetSupport(gens);
        if (support == 0 || support >= static_cast<size_t>(k)) continue;
        if (!found || support < best_support) {
          found = true;
          best_support = support;
          best_k = k;
          best_gens = std::move(gens);
        }
      }
      if (!found) break;
      SECRETA_RETURN_IF_ERROR(FixItemsetSupport(
          &space, std::move(best_gens), best_k, utility,
          /*prefer_global_cheapest=*/true));
    }
  }
  return space.Export();
}

}  // namespace secreta
