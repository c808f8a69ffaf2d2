#include "algo/transaction/violation_walk.h"

#include <algorithm>
#include <span>

namespace secreta {

namespace {

// The keys above the last of the itemset being visited, in a record that
// holds it. Records are sorted, so these are the one-key extensions of the
// itemset that the record holds.
using Tail = std::span<const int32_t>;

// One walk in the count tree's DFS order: the itemset being visited, the
// violations found so far, and a dense per-key counter, all zero between
// prefixes.
struct ViolationWalk {
  size_t k;
  size_t max_violations;
  std::vector<size_t> counts;
  std::vector<int32_t> path;
  std::vector<KmViolation> out;

  // Records `path` when `support` violates; true once `out` is full.
  bool Report(size_t support) {
    if (support >= k) return false;
    out.push_back({path, support});
    return out.size() >= max_violations;
  }

  // Visits the extensions of `path` by 1..`sizes_left` keys, counted over
  // `tails` (one per record holding `path`); true once `out` is full.
  bool Extend(std::span<const Tail> tails, int sizes_left) {
    std::vector<int32_t> extensions;
    for (Tail tail : tails) {
      for (int32_t key : tail) {
        if (counts[static_cast<size_t>(key)]++ == 0) extensions.push_back(key);
      }
    }
    std::sort(extensions.begin(), extensions.end());
    // Take the supports, and turn each count into the offset of its
    // extension's tails in `extension_tails`, which lays them out back to
    // back in ascending extension order.
    std::vector<size_t> supports(extensions.size());
    size_t offset = 0;
    for (size_t i = 0; i < extensions.size(); ++i) {
      size_t& count = counts[static_cast<size_t>(extensions[i])];
      supports[i] = count;
      count = offset;
      offset += supports[i];
    }
    // A second pass over the tails files, under each extension a tail
    // holds, the rest of the tail after it.
    std::vector<Tail> extension_tails;
    if (sizes_left > 1) {
      extension_tails.resize(offset);
      for (Tail tail : tails) {
        for (size_t p = 0; p < tail.size(); ++p) {
          extension_tails[counts[static_cast<size_t>(tail[p])]++] =
              tail.subspan(p + 1);
        }
      }
    }
    // Clear the counter before a longer prefix uses it.
    for (int32_t key : extensions) counts[static_cast<size_t>(key)] = 0;
    offset = 0;
    for (size_t i = 0; i < extensions.size(); ++i) {
      path.push_back(extensions[i]);
      if (Report(supports[i])) return true;
      if (sizes_left > 1 &&
          Extend(std::span<const Tail>(extension_tails)
                     .subspan(offset, supports[i]),
                 sizes_left - 1)) {
        return true;
      }
      offset += supports[i];
      path.pop_back();
    }
    return false;
  }
};

}  // namespace

std::vector<KmViolation> WalkKmViolations(
    const std::vector<std::vector<uint32_t>>& key_rows,
    const std::vector<std::vector<int32_t>>& records, int m, int k,
    size_t max_violations, int32_t from) {
  if (m < 1 || max_violations == 0) return {};
  ViolationWalk walk{static_cast<size_t>(k), max_violations,
                     std::vector<size_t>(m > 1 ? key_rows.size() : 0, 0),
                     {}, {}};
  std::vector<Tail> tails;
  for (auto key = static_cast<size_t>(std::max(from, 0));
       key < key_rows.size(); ++key) {
    const std::vector<uint32_t>& rows = key_rows[key];
    if (rows.empty()) continue;  // no record holds the key
    const auto first = static_cast<int32_t>(key);
    walk.path.assign(1, first);
    if (walk.Report(rows.size())) break;
    if (m == 1) continue;
    tails.clear();
    for (uint32_t r : rows) {
      const auto& rec = records[r];
      tails.emplace_back(std::upper_bound(rec.begin(), rec.end(), first),
                         rec.end());
    }
    if (walk.Extend(tails, m - 1)) break;
  }
  // Prefer the most fragile violations (smallest support first).
  std::sort(walk.out.begin(), walk.out.end(),
            [](const KmViolation& a, const KmViolation& b) {
              return a.support < b.support;
            });
  return std::move(walk.out);
}

}  // namespace secreta
