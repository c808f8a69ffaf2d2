#include "algo/transaction/coat.h"

#include <algorithm>

#include "obs/trace.h"

namespace secreta {

namespace {

// Utility-constraint group of a live gen (-1 = unconstrained, may not merge).
int32_t GroupOf(const GenSpace& space, const UtilityPolicy* utility,
                int32_t g) {
  if (utility == nullptr) return 0;
  return utility->constraint_of[static_cast<size_t>(space.Covers(g)[0])];
}

// Cheapest merge partner for `g` within its utility group; kSuppressedGen if
// none exists.
int32_t BestPartner(const GenSpace& space, const UtilityPolicy* utility,
                    int32_t g, double* cost_out) {
  int32_t group = GroupOf(space, utility, g);
  if (group == -1) return kSuppressedGen;
  int32_t best = kSuppressedGen;
  double best_cost = 0;
  for (int32_t other : space.LiveGens()) {
    if (other == g) continue;
    if (GroupOf(space, utility, other) != group) continue;
    double cost = space.MergeCost(g, other);
    if (best == kSuppressedGen || cost < best_cost) {
      best = other;
      best_cost = cost;
    }
  }
  if (best != kSuppressedGen && cost_out != nullptr) *cost_out = best_cost;
  return best;
}

void ReplaceMerged(std::vector<int32_t>* gens, int32_t a, int32_t b,
                   int32_t merged) {
  for (int32_t& g : *gens) {
    if (g == a || g == b) g = merged;
  }
  std::sort(gens->begin(), gens->end());
  gens->erase(std::unique(gens->begin(), gens->end()), gens->end());
}

}  // namespace

Status FixItemsetSupport(GenSpace* space, std::vector<int32_t> gens, int k,
                         const UtilityPolicy* utility,
                         bool prefer_global_cheapest) {
  std::sort(gens.begin(), gens.end());
  gens.erase(std::unique(gens.begin(), gens.end()), gens.end());
  while (true) {
    size_t support = space->ItemsetSupport(gens);
    if (support == 0 || support >= static_cast<size_t>(k)) return Status::OK();
    if (prefer_global_cheapest) {
      // PCTA: the globally cheapest merge over every involved gen.
      int32_t best_g = kSuppressedGen;
      int32_t best_partner = kSuppressedGen;
      double best_cost = 0;
      for (int32_t g : gens) {
        double cost = 0;
        int32_t partner = BestPartner(*space, utility, g, &cost);
        if (partner == kSuppressedGen) continue;
        if (best_g == kSuppressedGen || cost < best_cost) {
          best_g = g;
          best_partner = partner;
          best_cost = cost;
        }
      }
      if (best_g != kSuppressedGen) {
        int32_t merged = space->Merge(best_g, best_partner);
        ReplaceMerged(&gens, best_g, best_partner, merged);
        continue;
      }
    } else {
      // COAT: fix the most fragile (lowest-support) gen first.
      int32_t fragile = gens[0];
      for (int32_t g : gens) {
        if (space->Support(g) < space->Support(fragile)) fragile = g;
      }
      double cost = 0;
      int32_t partner = BestPartner(*space, utility, fragile, &cost);
      if (partner != kSuppressedGen) {
        int32_t merged = space->Merge(fragile, partner);
        ReplaceMerged(&gens, fragile, partner, merged);
        continue;
      }
    }
    // No merge available anywhere: suppress the cheapest gen, which drives
    // the itemset's support to 0 (a satisfied state).
    int32_t victim = gens[0];
    double victim_cost = space->SuppressCost(victim);
    for (int32_t g : gens) {
      double cost = space->SuppressCost(g);
      if (cost < victim_cost) {
        victim = g;
        victim_cost = cost;
      }
    }
    space->Suppress(victim);
    return Status::OK();
  }
}

Result<TransactionRecoding> CoatAnonymizer::AnonymizeSubset(
    const TransactionContext& context, const std::vector<size_t>& subset,
    const AnonParams& params) {
  SECRETA_TRACE_SPAN("algo.Coat");
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
    // k^m mode: derive constraints from current violations until none
    // remain. Each search resumes at the last violation's first gen
    // (GenSpace::FindViolations).
    int32_t from = 0;
    while (true) {
      SECRETA_RETURN_IF_ERROR(CheckCancel("coat iteration"));
      auto violations = space.FindViolations(params.m, params.k, 1, from);
      if (violations.empty()) break;
      from = violations[0].itemset[0];
      SECRETA_RETURN_IF_ERROR(FixItemsetSupport(
          &space, violations[0].itemset, params.k, utility,
          /*prefer_global_cheapest=*/false));
    }
  } else {
    // Constraints may interact (suppression zeroes supports, merges raise
    // them); a couple of verification passes settle any residue.
    for (int pass = 0; pass < 3; ++pass) {
      bool violated = false;
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
        if (suppressed) continue;  // support is 0: satisfied
        size_t support = space.ItemsetSupport(gens);
        if (support == 0 || support >= static_cast<size_t>(k)) continue;
        violated = true;
        SECRETA_RETURN_IF_ERROR(FixItemsetSupport(
            &space, std::move(gens), k, utility,
            /*prefer_global_cheapest=*/false));
      }
      if (!violated) break;
    }
  }
  return space.Export();
}

}  // namespace secreta
