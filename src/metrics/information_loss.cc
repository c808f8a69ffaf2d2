#include "metrics/information_loss.h"

#include <algorithm>

namespace secreta {

double NodeNcp(const Hierarchy& hierarchy, NodeId node) {
  if (hierarchy.IsLeaf(node)) return 0.0;
  if (hierarchy.has_numeric_ranges()) {
    double domain = hierarchy.range_hi(hierarchy.root()) -
                    hierarchy.range_lo(hierarchy.root());
    if (domain <= 0) return 0.0;
    return (hierarchy.range_hi(node) - hierarchy.range_lo(node)) / domain;
  }
  size_t total = hierarchy.num_leaves();
  if (total <= 1) return 0.0;
  return static_cast<double>(hierarchy.LeafCount(node) - 1) /
         static_cast<double>(total - 1);
}

std::vector<double> NodeNcpTable(const Hierarchy& hierarchy) {
  std::vector<double> table(hierarchy.num_nodes());
  for (size_t node = 0; node < table.size(); ++node) {
    table[node] = NodeNcp(hierarchy, static_cast<NodeId>(node));
  }
  return table;
}

std::vector<double> RecodingGcpPerAttribute(const RelationalContext& context,
                                            const RelationalRecoding& recoding) {
  size_t n = recoding.num_records();
  size_t q = recoding.num_qi();
  std::vector<double> per_attr(q, 0.0);
  if (n == 0 || q == 0) return per_attr;
  // Memoize per-node NCP per attribute; recodings revisit few distinct nodes.
  std::vector<std::vector<double>> memo(q);
  for (size_t j = 0; j < q; ++j) {
    memo[j].assign(context.hierarchy(j).num_nodes(), -1.0);
  }
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < q; ++j) {
      NodeId node = recoding.at(r, j);
      double& cached = memo[j][static_cast<size_t>(node)];
      if (cached < 0) cached = NodeNcp(context.hierarchy(j), node);
      per_attr[j] += cached;
    }
  }
  for (double& v : per_attr) v /= static_cast<double>(n);
  return per_attr;
}

double RecodingGcp(const RelationalContext& context,
                   const RelationalRecoding& recoding) {
  std::vector<double> per_attr = RecodingGcpPerAttribute(context, recoding);
  if (per_attr.empty()) return 0.0;
  double total = 0;
  for (double v : per_attr) total += v;
  return total / static_cast<double>(per_attr.size());
}

double LcaNcp(const Hierarchy& hierarchy, const std::vector<NodeId>& leaves) {
  if (leaves.empty()) return 0.0;
  auto lca = hierarchy.LcaOfSet(leaves);
  return NodeNcp(hierarchy, lca.value());
}

namespace {

// Number of elements in the sorted intersection of two sorted vectors.
size_t IntersectCount(const std::vector<ItemId>& a, const std::vector<ItemId>& b) {
  size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace

double RecordUl(const TransactionRecoding& recoding, size_t row,
                const std::vector<ItemId>& original, size_t num_items) {
  if (original.empty()) return 0.0;
  double denom = num_items > 1 ? static_cast<double>(num_items - 1) : 1.0;
  double loss = 0;
  size_t covered = 0;
  for (int32_t gen : recoding.records[row]) {
    const GeneralizedItem& g = recoding.gens[static_cast<size_t>(gen)];
    size_t hits = IntersectCount(g.covers, original);
    covered += hits;
    loss += static_cast<double>(hits) *
            (static_cast<double>(g.covers.size() - 1) / denom);
  }
  // Anything not covered by a generalized item was suppressed: full loss.
  loss += static_cast<double>(original.size() - covered) * 1.0;
  return loss / static_cast<double>(original.size());
}

double TransactionUl(const TransactionRecoding& recoding,
                     const std::vector<std::vector<ItemId>>& original,
                     size_t num_items) {
  double loss = 0;
  size_t occurrences = 0;
  for (size_t r = 0; r < recoding.records.size(); ++r) {
    loss += RecordUl(recoding, r, original[r], num_items) *
            static_cast<double>(original[r].size());
    occurrences += original[r].size();
  }
  if (occurrences == 0) return 0.0;
  return loss / static_cast<double>(occurrences);
}

double Discernibility(const EquivalenceClasses& classes) {
  double dm = 0;
  for (size_t c = 0; c < classes.num_groups(); ++c) {
    double size = static_cast<double>(classes.groups[c].size());
    dm += size * size;
  }
  return dm;
}

double AverageClassSize(const EquivalenceClasses& classes, int k) {
  if (classes.num_groups() == 0 || k <= 0) return 0.0;
  size_t n = 0;
  for (size_t c = 0; c < classes.num_groups(); ++c) {
    n += classes.groups[c].size();
  }
  return static_cast<double>(n) / (static_cast<double>(classes.num_groups()) *
                                   static_cast<double>(k));
}

}  // namespace secreta
