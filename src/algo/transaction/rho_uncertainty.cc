#include "algo/transaction/rho_uncertainty.h"

#include <algorithm>
#include <numeric>

#include "core/guarantees.h"
#include "obs/trace.h"

namespace secreta {

namespace {

// The worst rule X -> s with confidence > rho, if any. Returns (itemset A =
// X + {s}, position of s in A) through out-params.
bool FindWorstRule(const ItemsetCounts& counts,
                   const std::vector<char>& is_sensitive, double rho, int m,
                   std::vector<ItemId>* worst_set, ItemId* worst_consequent) {
  double worst_conf = rho;
  bool found = false;
  std::vector<ItemId> antecedent;
  for (const auto& [itemset, support] : counts) {
    if (itemset.size() < 2) continue;
    if (static_cast<int>(itemset.size()) > m + 1) continue;
    for (ItemId s : itemset) {
      if (!is_sensitive[static_cast<size_t>(s)]) continue;
      antecedent.clear();
      for (ItemId i : itemset) {
        if (i != s) antecedent.push_back(i);
      }
      auto it = counts.find(antecedent);
      if (it == counts.end() || it->second == 0) continue;
      double conf =
          static_cast<double>(support) / static_cast<double>(it->second);
      if (conf > worst_conf) {
        worst_conf = conf;
        *worst_set = itemset;
        *worst_consequent = s;
        found = true;
      }
    }
  }
  return found;
}

// Counts the support of every itemset of size <= max_size in the generalized
// records projected back to original items; multi-item gens are skipped (an
// adversary cannot pin the exact item). Suppression-only outputs keep every
// surviving item.
ItemsetCounts CountSingletonItemsets(const TransactionRecoding& recoding,
                                     int max_size) {
  ItemsetCounts counts;
  std::vector<ItemId> items;
  for (const auto& rec : recoding.records) {
    items.clear();
    for (int32_t g : rec) {
      const auto& covers = recoding.gens[static_cast<size_t>(g)].covers;
      if (covers.size() == 1) items.push_back(covers[0]);
    }
    std::sort(items.begin(), items.end());
    CountSubsets(items, max_size, &counts);
  }
  return counts;
}

}  // namespace

bool SatisfiesRhoUncertainty(const TransactionRecoding& recoding,
                             const std::vector<char>& is_sensitive, double rho,
                             int m) {
  ItemsetCounts counts = CountSingletonItemsets(recoding, m + 1);
  std::vector<ItemId> worst_set;
  ItemId worst_consequent = kInvalidValue;
  return !FindWorstRule(counts, is_sensitive, rho, m, &worst_set,
                        &worst_consequent);
}

Result<TransactionRecoding> RhoUncertaintyAnonymizer::AnonymizeSubset(
    const TransactionContext& context, const std::vector<size_t>& subset,
    const AnonParams& params) {
  SECRETA_TRACE_SPAN("algo.RhoUncertainty");
  SECRETA_RETURN_IF_ERROR(params.Validate());
  size_t num_items = context.num_items();
  std::vector<char> is_sensitive(num_items, 0);
  if (!sensitive_.empty()) {
    for (ItemId item : sensitive_) {
      if (item < 0 || static_cast<size_t>(item) >= num_items) {
        return Status::OutOfRange("sensitive item id out of range");
      }
      is_sensitive[static_cast<size_t>(item)] = 1;
    }
  } else {
    // Default: the least-frequent 20% of items are sensitive.
    std::vector<size_t> support(num_items, 0);
    for (size_t row : subset) {
      for (ItemId item : context.dataset().items(row).raw()) {
        support[static_cast<size_t>(item)]++;
      }
    }
    std::vector<size_t> order(num_items);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return support[a] < support[b]; });
    size_t take = std::max<size_t>(1, num_items / 5);
    for (size_t i = 0; i < take; ++i) is_sensitive[order[i]] = 1;
  }

  std::vector<std::vector<ItemId>> txns;
  txns.reserve(subset.size());
  for (size_t row : subset) txns.push_back(context.dataset().items(row).raw());
  GenSpace space(std::move(txns), context.dataset().item_dictionary());

  while (true) {
    ItemsetCounts counts =
        CountSingletonItemsets(space.Export(), params.m + 1);
    std::vector<ItemId> worst_set;
    ItemId worst_consequent = kInvalidValue;
    if (!FindWorstRule(counts, is_sensitive, params.rho, params.m, &worst_set,
                       &worst_consequent)) {
      break;
    }
    // Suppress the lowest-support item of the violating rule (the global
    // suppression strategy of [2]: remove the least valuable side).
    ItemId victim = worst_consequent;
    size_t victim_support = counts[{worst_consequent}];
    for (ItemId item : worst_set) {
      size_t s = counts[{item}];
      if (s < victim_support) {
        victim = item;
        victim_support = s;
      }
    }
    int32_t gen = space.GenOf(victim);
    if (gen == kSuppressedGen) {
      return Status::Internal("rho-uncertainty tried to re-suppress an item");
    }
    space.Suppress(gen);
  }
  return space.Export();
}

}  // namespace secreta
