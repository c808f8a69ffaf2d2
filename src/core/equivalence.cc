#include "core/equivalence.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "common/string_util.h"

namespace secreta {

namespace {

EquivalenceClasses GroupRows(size_t num_records, size_t width,
                             const std::function<NodeId(size_t, size_t)>& get) {
  EquivalenceClasses out;
  out.group_of.resize(num_records);
  std::unordered_map<std::vector<NodeId>, size_t, IntVectorHash> index;
  std::vector<NodeId> key(width);
  for (size_t r = 0; r < num_records; ++r) {
    for (size_t q = 0; q < width; ++q) key[q] = get(r, q);
    auto [it, inserted] = index.try_emplace(key, out.groups.size());
    if (inserted) out.groups.emplace_back();
    out.groups[it->second].push_back(r);
    out.group_of[r] = it->second;
  }
  return out;
}

}  // namespace

size_t EquivalenceClasses::MinGroupSize() const {
  size_t min_size = 0;
  for (const auto& g : groups) {
    if (min_size == 0 || g.size() < min_size) min_size = g.size();
  }
  return min_size;
}

EquivalenceClasses GroupByRecoding(const RelationalRecoding& recoding) {
  return GroupRows(recoding.num_records(), recoding.num_qi(),
                   [&](size_t r, size_t q) { return recoding.at(r, q); });
}

EquivalenceClasses GroupByOriginal(const RelationalContext& context) {
  return GroupRows(context.num_records(), context.num_qi(),
                   [&](size_t r, size_t q) { return context.Leaf(r, q); });
}

}  // namespace secreta
