#include "metrics/frequency.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

namespace secreta {

Histogram GeneralizedValueHistogram(const RelationalContext& context,
                                    const RelationalRecoding& recoding,
                                    size_t qi) {
  std::unordered_map<NodeId, size_t> position;
  Histogram hist;
  for (size_t r = 0; r < recoding.num_records(); ++r) {
    NodeId node = recoding.at(r, qi);
    auto [it, inserted] = position.emplace(node, hist.size());
    if (inserted) {
      hist.push_back({context.hierarchy(qi).label(node), 0});
    }
    hist[it->second].count++;
  }
  return hist;
}

Histogram GeneralizedItemHistogram(const TransactionRecoding& recoding) {
  std::vector<size_t> counts(recoding.gens.size(), 0);
  for (const auto& rec : recoding.records) {
    for (int32_t g : rec) counts[static_cast<size_t>(g)]++;
  }
  Histogram hist;
  for (size_t g = 0; g < counts.size(); ++g) {
    if (counts[g] > 0) hist.push_back({recoding.gens[g].label, counts[g]});
  }
  std::sort(hist.begin(), hist.end(),
            [](const FrequencyBucket& a, const FrequencyBucket& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.label < b.label;
            });
  return hist;
}

Histogram ClassSizeHistogram(const EquivalenceClasses& classes) {
  std::map<size_t, size_t> by_size;
  for (size_t c = 0; c < classes.num_groups(); ++c) {
    ++by_size[classes.groups[c].size()];
  }
  Histogram hist;
  for (const auto& [size, count] : by_size) {
    hist.push_back({std::to_string(size) + " records", count});
  }
  return hist;
}

std::vector<std::pair<std::string, double>> ItemFrequencyError(
    const TransactionRecoding& recoding,
    const std::vector<std::vector<ItemId>>& original,
    const Dictionary& item_dict) {
  size_t num_items = item_dict.size();
  std::vector<double> orig(num_items, 0);
  std::vector<double> est(num_items, 0);
  for (const auto& txn : original) {
    for (ItemId item : txn) orig[static_cast<size_t>(item)] += 1;
  }
  for (const auto& rec : recoding.records) {
    for (int32_t gen : rec) {
      const GeneralizedItem& g = recoding.gens[static_cast<size_t>(gen)];
      double share = 1.0 / static_cast<double>(g.covers.size());
      for (ItemId item : g.covers) est[static_cast<size_t>(item)] += share;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  out.reserve(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    double denom = std::max(orig[i], 1.0);
    out.emplace_back(item_dict.value(static_cast<ItemId>(i)),
                     std::fabs(orig[i] - est[i]) / denom);
  }
  return out;
}

double MeanItemFrequencyError(const TransactionRecoding& recoding,
                              const std::vector<std::vector<ItemId>>& original,
                              const Dictionary& item_dict) {
  auto errors = ItemFrequencyError(recoding, original, item_dict);
  if (errors.empty()) return 0.0;
  double total = 0;
  for (const auto& [_, err] : errors) total += err;
  return total / static_cast<double>(errors.size());
}

}  // namespace secreta
