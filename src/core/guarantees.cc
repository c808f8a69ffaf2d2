#include "core/guarantees.h"

namespace secreta {

namespace {

// Counts `current` extended by each of items[start..] in turn, then those
// extensions' own extensions, until `current` holds m items.
void CountFrom(const std::vector<int32_t>& items, size_t start, int m,
               std::vector<int32_t>* current, ItemsetCounts* counts) {
  if (current->size() == static_cast<size_t>(m)) return;
  for (size_t i = start; i < items.size(); ++i) {
    current->push_back(items[i]);
    ++(*counts)[*current];
    CountFrom(items, i + 1, m, current, counts);
    current->pop_back();
  }
}

}  // namespace

void CountSubsets(const std::vector<int32_t>& items, int m,
                  ItemsetCounts* counts) {
  std::vector<int32_t> current;
  CountFrom(items, 0, m, &current, counts);
}

bool IsKAnonymous(const RelationalRecoding& recoding, int k) {
  if (recoding.num_records() == 0) return true;
  EquivalenceClasses classes = GroupByRecoding(recoding);
  return classes.MinGroupSize() >= static_cast<size_t>(k);
}

std::vector<KmViolation> FindKmViolations(
    const std::vector<std::vector<int32_t>>& records, int k, int m,
    const std::vector<size_t>* subset, size_t max_violations) {
  ItemsetCounts counts;
  if (subset != nullptr) {
    for (size_t r : *subset) CountSubsets(records[r], m, &counts);
  } else {
    for (const auto& rec : records) CountSubsets(rec, m, &counts);
  }
  std::vector<KmViolation> violations;
  for (const auto& [itemset, support] : counts) {
    if (support > 0 && support < static_cast<size_t>(k)) {
      violations.push_back({itemset, support});
      if (violations.size() >= max_violations) break;
    }
  }
  return violations;
}

bool IsKmAnonymous(const std::vector<std::vector<int32_t>>& records, int k,
                   int m) {
  return FindKmViolations(records, k, m).empty();
}

bool IsKKmAnonymous(const RelationalRecoding& recoding,
                    const std::vector<std::vector<int32_t>>& txn_records,
                    int k, int m) {
  if (recoding.num_records() == 0) return true;
  EquivalenceClasses classes = GroupByRecoding(recoding);
  if (classes.MinGroupSize() < static_cast<size_t>(k)) return false;
  std::vector<size_t> group;
  for (size_t c = 0; c < classes.num_groups(); ++c) {
    group.assign(classes.groups[c].begin(), classes.groups[c].end());
    if (!FindKmViolations(txn_records, k, m, &group).empty()) return false;
  }
  return true;
}

}  // namespace secreta
