#include "algo/relational/incognito.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "common/parallel.h"
#include "common/string_util.h"
#include "core/equivalence.h"
#include "core/recoding.h"
#include "metrics/information_loss.h"
#include "obs/trace.h"

namespace secreta {

namespace {

using Levels = std::vector<int>;
using Subset = std::vector<size_t>;  // QI positions, sorted

// Frontier of minimal anonymous level vectors for one subset.
struct Frontier {
  std::vector<Levels> minimal;

  bool IsAnonymous(const Levels& levels) const {
    for (const Levels& f : minimal) {
      bool leq = true;
      for (size_t i = 0; i < f.size(); ++i) {
        if (f[i] > levels[i]) {
          leq = false;
          break;
        }
      }
      if (leq) return true;
    }
    return false;
  }
};

// Lazily computed leaf -> ancestor-at-level tables, one per (qi, level).
// Reference-path helper (the seed implementation, kept as the oracle).
class LevelTables {
 public:
  explicit LevelTables(const RelationalContext& context) : context_(&context) {
    tables_.resize(context.num_qi());
  }

  const std::vector<NodeId>& Table(size_t qi, int level) {
    auto& per_level = tables_[qi];
    if (per_level.size() <= static_cast<size_t>(level)) {
      per_level.resize(static_cast<size_t>(level) + 1);
    }
    auto& table = per_level[static_cast<size_t>(level)];
    if (table.empty()) {
      const Hierarchy& h = context_->hierarchy(qi);
      table.resize(h.num_nodes(), kNoNode);
      for (NodeId leaf : h.leaves()) {
        table[static_cast<size_t>(leaf)] = h.AncestorAtLevel(leaf, level);
      }
    }
    return table;
  }

 private:
  const RelationalContext* context_;
  std::vector<std::vector<std::vector<NodeId>>> tables_;
};

// Reference k-anonymity check: vector keys into an unordered_map. O(n)
// hashing of q-element vectors plus node allocations per distinct group.
bool CheckAnonymousReference(const RelationalContext& context,
                             LevelTables* tables, const Subset& subset,
                             const Levels& levels, int k) {
  std::vector<const std::vector<NodeId>*> maps(subset.size());
  for (size_t i = 0; i < subset.size(); ++i) {
    maps[i] = &tables->Table(subset[i], levels[i]);
  }
  std::unordered_map<std::vector<NodeId>, size_t, IntVectorHash> counts;
  std::vector<NodeId> key(subset.size());
  size_t n = context.num_records();
  counts.reserve(n / 4);
  for (size_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < subset.size(); ++i) {
      key[i] = (*maps[i])[static_cast<size_t>(context.Leaf(r, subset[i]))];
    }
    ++counts[key];
  }
  for (const auto& [_, count] : counts) {
    if (count < static_cast<size_t>(k)) return false;
  }
  return true;
}

// Optimized-path columns: for each (qi, level) a per-record column of dense
// codes in [0, radix). A group key over a QI subset then packs into one
// uint64 by mixed-radix arithmetic — no vector hashing, no per-group
// allocation — and the scan body is three array loads per (record, qi).
class RecodedColumns {
 public:
  static constexpr uint32_t kNoCode = ~uint32_t{0};

  struct Column {
    std::vector<uint32_t> codes;  // per record
    uint64_t radix = 0;           // 0 = not built yet
  };

  explicit RecodedColumns(const RelationalContext& context)
      : context_(&context) {
    size_t q = context.num_qi();
    size_t n = context.num_records();
    leaf_cols_.resize(q);
    cols_.resize(q);
    for (size_t qi = 0; qi < q; ++qi) {
      leaf_cols_[qi].resize(n);
      for (size_t r = 0; r < n; ++r) {
        leaf_cols_[qi][r] =
            static_cast<uint32_t>(context.Leaf(r, qi));
      }
      cols_[qi].resize(static_cast<size_t>(context.hierarchy(qi).height()) + 1);
    }
  }

  /// Builds (qi, level) if missing. Must run on one thread; Get() afterwards
  /// is safe concurrently.
  const Column& Ensure(size_t qi, int level) {
    Column& col = cols_[qi][static_cast<size_t>(level)];
    if (col.radix != 0) return col;
    const Hierarchy& h = context_->hierarchy(qi);
    // Dense-code the level's ancestor nodes in leaf order (deterministic).
    std::vector<uint32_t> node_code(h.num_nodes(), kNoCode);
    uint32_t next = 0;
    for (NodeId leaf : h.leaves()) {
      size_t anc = static_cast<size_t>(h.AncestorAtLevel(leaf, level));
      if (node_code[anc] == kNoCode) node_code[anc] = next++;
    }
    std::vector<uint32_t> leaf_code(h.num_nodes(), 0);
    for (NodeId leaf : h.leaves()) {
      leaf_code[static_cast<size_t>(leaf)] =
          node_code[static_cast<size_t>(h.AncestorAtLevel(leaf, level))];
    }
    size_t n = context_->num_records();
    col.codes.resize(n);
    const std::vector<uint32_t>& leaves = leaf_cols_[qi];
    for (size_t r = 0; r < n; ++r) col.codes[r] = leaf_code[leaves[r]];
    col.radix = next == 0 ? 1 : next;
    return col;
  }

  const Column& Get(size_t qi, int level) const {
    return cols_[qi][static_cast<size_t>(level)];
  }

 private:
  const RelationalContext* context_;
  std::vector<std::vector<uint32_t>> leaf_cols_;  // qi -> per-record leaf
  std::vector<std::vector<Column>> cols_;         // qi -> level -> column
};

// Mixed-radix packing of one (subset, levels) group key. ok = false when the
// combined key space overflows 64 bits (fall back to the reference scan).
struct PackedPlan {
  std::vector<const uint32_t*> codes;
  std::vector<uint64_t> strides;
  uint64_t space = 1;
  bool ok = true;
};

PackedPlan MakePlan(const RecodedColumns& columns, const Subset& subset,
                    const Levels& levels) {
  PackedPlan plan;
  plan.codes.reserve(subset.size());
  plan.strides.reserve(subset.size());
  for (size_t i = 0; i < subset.size(); ++i) {
    const RecodedColumns::Column& col = columns.Get(subset[i], levels[i]);
    if (col.radix != 0 &&
        plan.space > (~uint64_t{0} >> 1) / col.radix) {
      plan.ok = false;
      return plan;
    }
    plan.codes.push_back(col.codes.data());
    plan.strides.push_back(plan.space);
    plan.space *= col.radix;
  }
  return plan;
}

inline uint64_t MixKey(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// k-anonymity via packed keys: direct-address counts when the key space is
// small, linear-probing open addressing (flat arrays, no per-group
// allocation) otherwise.
bool CheckAnonymousPacked(const PackedPlan& plan, size_t n, int k) {
  size_t q = plan.codes.size();
  auto key_of = [&](size_t r) {
    uint64_t key = 0;
    for (size_t i = 0; i < q; ++i) {
      key += static_cast<uint64_t>(plan.codes[i][r]) * plan.strides[i];
    }
    return key;
  };
  if (plan.space <= 4 * static_cast<uint64_t>(n) + 1024) {
    std::vector<uint32_t> counts(static_cast<size_t>(plan.space), 0);
    for (size_t r = 0; r < n; ++r) ++counts[static_cast<size_t>(key_of(r))];
    for (uint32_t c : counts) {
      if (c != 0 && c < static_cast<uint32_t>(k)) return false;
    }
    return true;
  }
  constexpr uint64_t kEmpty = ~uint64_t{0};
  size_t cap = 1;
  while (cap < 2 * n) cap <<= 1;
  std::vector<uint64_t> slot_key(cap, kEmpty);
  std::vector<uint32_t> slot_count(cap, 0);
  size_t mask = cap - 1;
  for (size_t r = 0; r < n; ++r) {
    uint64_t key = key_of(r);  // < space <= 2^63, never the sentinel
    size_t idx = static_cast<size_t>(MixKey(key)) & mask;
    while (true) {
      if (slot_key[idx] == kEmpty) {
        slot_key[idx] = key;
        slot_count[idx] = 1;
        break;
      }
      if (slot_key[idx] == key) {
        ++slot_count[idx];
        break;
      }
      idx = (idx + 1) & mask;
    }
  }
  for (size_t i = 0; i < cap; ++i) {
    if (slot_key[i] != kEmpty && slot_count[i] < static_cast<uint32_t>(k)) {
      return false;
    }
  }
  return true;
}

int LevelSum(const Levels& levels) {
  return std::accumulate(levels.begin(), levels.end(), 0);
}

// All level vectors of the subset's lattice, ordered by level sum (BFS order).
std::vector<Levels> LatticeNodes(const std::vector<int>& heights) {
  std::vector<Levels> nodes;
  Levels current(heights.size(), 0);
  // Odometer enumeration.
  while (true) {
    nodes.push_back(current);
    size_t pos = 0;
    while (pos < current.size()) {
      if (current[pos] < heights[pos]) {
        ++current[pos];
        for (size_t i = 0; i < pos; ++i) current[i] = 0;
        break;
      }
      ++pos;
    }
    if (pos == current.size()) break;
  }
  std::stable_sort(nodes.begin(), nodes.end(),
                   [](const Levels& a, const Levels& b) {
                     return LevelSum(a) < LevelSum(b);
                   });
  return nodes;
}

// All subsets of {0..q-1} with `size` elements, lexicographic.
std::vector<Subset> Combinations(size_t q, size_t size) {
  std::vector<Subset> out;
  Subset current;
  std::function<void(size_t)> rec = [&](size_t start) {
    if (current.size() == size) {
      out.push_back(current);
      return;
    }
    for (size_t i = start; i + (size - current.size()) <= q; ++i) {
      current.push_back(i);
      rec(i + 1);
      current.pop_back();
    }
  };
  rec(0);
  return out;
}

}  // namespace

Result<std::vector<std::vector<int>>> IncognitoAnonymizer::MinimalAnonymousLevels(
    const RelationalContext& context, const AnonParams& params,
    IncognitoStats* stats) {
  SECRETA_RETURN_IF_ERROR(params.Validate());
  IncognitoStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  size_t q = context.num_qi();
  if (q > 12) {
    return Status::InvalidArgument(
        "Incognito enumerates QI subsets; more than 12 QIs is intractable");
  }
  size_t n = context.num_records();
  if (n < static_cast<size_t>(params.k)) {
    return Status::FailedPrecondition(
        "dataset has fewer records than k; k-anonymity is unattainable");
  }
  LevelTables tables(context);
  std::unique_ptr<RecodedColumns> columns;
  if (!use_reference_impl_) columns = std::make_unique<RecodedColumns>(context);
  std::map<Subset, Frontier> frontiers;
  for (size_t size = 1; size <= q; ++size) {
    for (const Subset& subset : Combinations(q, size)) {
      SECRETA_RETURN_IF_ERROR(CheckCancel("incognito subset"));
      std::vector<int> heights(size);
      for (size_t i = 0; i < size; ++i) {
        heights[i] = context.hierarchy(subset[i]).height();
      }
      Frontier& frontier = frontiers[subset];
      std::vector<Levels> nodes = LatticeNodes(heights);
      // Walk the lattice one level sum at a time. Equal-sum vectors cannot
      // dominate one another (equal sum + component-wise <= forces
      // equality), so the rollup check against the frontier at level entry
      // and a parallel scan of the level's survivors are both exact — the
      // frontier grows only between levels, in node order, which keeps the
      // result byte-identical to the serial walk.
      size_t begin = 0;
      while (begin < nodes.size()) {
        SECRETA_RETURN_IF_ERROR(CheckCancel("incognito level"));
        int sum = LevelSum(nodes[begin]);
        size_t end = begin + 1;
        while (end < nodes.size() && LevelSum(nodes[end]) == sum) ++end;
        std::vector<size_t> to_scan;
        for (size_t i = begin; i < end; ++i) {
          const Levels& levels = nodes[i];
          ++stats->lattice_nodes;
          if (frontier.IsAnonymous(levels)) {  // rollup property
            ++stats->inherited;
            continue;
          }
          if (size > 1) {
            // Subset property: every (size-1)-restriction must be anonymous.
            bool viable = true;
            for (size_t drop = 0; drop < size && viable; ++drop) {
              Subset sub;
              Levels sub_levels;
              for (size_t i2 = 0; i2 < size; ++i2) {
                if (i2 == drop) continue;
                sub.push_back(subset[i2]);
                sub_levels.push_back(levels[i2]);
              }
              viable = frontiers[sub].IsAnonymous(sub_levels);
            }
            if (!viable) {
              ++stats->pruned_by_subset;
              continue;
            }
          }
          ++stats->scanned;
          to_scan.push_back(i);
        }
        if (!to_scan.empty()) {
          std::vector<char> anonymous(to_scan.size(), 0);
          if (use_reference_impl_) {
            for (size_t t = 0; t < to_scan.size(); ++t) {
              anonymous[t] = CheckAnonymousReference(
                  context, &tables, subset, nodes[to_scan[t]], params.k);
            }
          } else {
            // Build the needed recode columns serially, then scan the
            // level's candidates in parallel over immutable state.
            std::vector<PackedPlan> plans(to_scan.size());
            for (size_t t = 0; t < to_scan.size(); ++t) {
              const Levels& levels = nodes[to_scan[t]];
              for (size_t i = 0; i < size; ++i) {
                columns->Ensure(subset[i], levels[i]);
              }
              plans[t] = MakePlan(*columns, subset, levels);
            }
            ParallelFor(pool_, to_scan.size(), [&](size_t t) {
              if (plans[t].ok) {
                anonymous[t] = CheckAnonymousPacked(plans[t], n, params.k);
              }
            });
            for (size_t t = 0; t < to_scan.size(); ++t) {
              if (!plans[t].ok) {  // key space > 2^63: degenerate, rare
                anonymous[t] = CheckAnonymousReference(
                    context, &tables, subset, nodes[to_scan[t]], params.k);
              }
            }
          }
          for (size_t t = 0; t < to_scan.size(); ++t) {
            if (anonymous[t]) frontier.minimal.push_back(nodes[to_scan[t]]);
          }
        }
        begin = end;
      }
    }
  }
  Subset full(q);
  std::iota(full.begin(), full.end(), 0);
  const Frontier& result = frontiers[full];
  if (result.minimal.empty()) {
    return Status::Internal(
        "no k-anonymous full-domain generalization found (unexpected: the "
        "all-roots vector is always k-anonymous when n >= k)");
  }
  return result.minimal;
}

Result<RelationalRecoding> IncognitoAnonymizer::Anonymize(
    const RelationalContext& context, const AnonParams& params) {
  SECRETA_TRACE_SPAN("algo.Incognito");
  SECRETA_ASSIGN_OR_RETURN(std::vector<std::vector<int>> frontier,
                           MinimalAnonymousLevels(context, params));
  // Pick the minimal anonymous vector with the lowest GCP (the first on
  // ties) and build only its recoding. A vector's GCP sums, per QI and in
  // record order, the NCP of each leaf's ancestor at the vector's level, then
  // averages the way RecodingGcp averages its memoized NodeNcp: the same
  // double operations, so the same pick as scoring every vector's recoding.
  const size_t n = context.num_records();
  const size_t q = context.num_qi();
  std::vector<std::vector<NodeId>> leaves(q, std::vector<NodeId>(n));
  std::vector<std::vector<double>> node_ncp(q);
  for (size_t j = 0; j < q; ++j) {
    for (size_t r = 0; r < n; ++r) leaves[j][r] = context.Leaf(r, j);
    node_ncp[j] = NodeNcpTable(context.hierarchy(j));
  }
  const std::vector<int>* best = nullptr;
  double best_gcp = 0;
  std::vector<double> leaf_ncp;
  for (const auto& levels : frontier) {
    double total = 0;
    for (size_t j = 0; j < q; ++j) {
      const Hierarchy& h = context.hierarchy(j);
      leaf_ncp.assign(h.num_nodes(), 0.0);
      for (NodeId leaf : h.leaves()) {
        leaf_ncp[static_cast<size_t>(leaf)] = node_ncp[j][static_cast<size_t>(
            h.AncestorAtLevel(leaf, levels[j]))];
      }
      double per_attr = 0.0;
      for (NodeId leaf : leaves[j]) {
        per_attr += leaf_ncp[static_cast<size_t>(leaf)];
      }
      if (n > 0) per_attr /= static_cast<double>(n);
      total += per_attr;
    }
    const double gcp = q == 0 ? 0.0 : total / static_cast<double>(q);
    if (best == nullptr || gcp < best_gcp) {
      best_gcp = gcp;
      best = &levels;
    }
  }
  return ApplyFullDomainLevels(context, *best);
}

}  // namespace secreta
