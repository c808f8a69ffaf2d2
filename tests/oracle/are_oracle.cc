#include "tests/oracle/are_oracle.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace secreta {
namespace oracle {
namespace {

// One relational clause resolved against the dataset.
struct Clause {
  size_t col = 0;
  std::vector<char> match;  // per ValueId of the column: does it match?
  // Set when the column is a QI of the context: its hierarchy, QI position
  // and the sorted DFS positions of the matching values' leaves.
  const Hierarchy* hierarchy = nullptr;
  size_t qi = 0;
  std::vector<int32_t> leaf_positions;
};

struct Query {
  std::vector<Clause> clauses;
  std::vector<ItemId> items;  // sorted, unique
  bool impossible = false;    // names a value or item absent from the data
};

Result<Query> Resolve(const Dataset& dataset,
                      const RelationalContext* rel_context,
                      const CountQuery& query) {
  Query resolved;
  for (const QueryClause& qc : query.relational) {
    SECRETA_ASSIGN_OR_RETURN(size_t col, dataset.ColumnByName(qc.attribute));
    Clause clause;
    clause.col = col;
    const Dictionary& dict = dataset.dictionary(col);
    clause.match.assign(dict.size(), 0);
    if (qc.is_range) {
      if (!dataset.is_numeric(col)) {
        return Status::InvalidArgument(
            "range clause on non-numeric attribute: " + qc.attribute);
      }
      for (size_t id = 0; id < dict.size(); ++id) {
        double v = dataset.numeric_value(col, static_cast<ValueId>(id)).raw();
        clause.match[id] = v >= qc.lo && v <= qc.hi;
      }
    } else {
      for (const std::string& value : qc.values) {
        auto id = dict.Lookup(value);
        if (id.ok()) clause.match[static_cast<size_t>(id.value())] = 1;
      }
    }
    if (std::find(clause.match.begin(), clause.match.end(), 1) ==
        clause.match.end()) {
      resolved.impossible = true;
    }
    for (size_t qi = 0; rel_context != nullptr && qi < rel_context->num_qi();
         ++qi) {
      if (rel_context->qi_column(qi) != col) continue;
      clause.hierarchy = &rel_context->hierarchy(qi);
      clause.qi = qi;
      for (size_t id = 0; id < dict.size(); ++id) {
        if (!clause.match[id]) continue;
        SECRETA_ASSIGN_OR_RETURN(
            NodeId leaf,
            clause.hierarchy->LeafOf(dict.value(static_cast<ValueId>(id))));
        clause.leaf_positions.push_back(
            clause.hierarchy->leaf_interval_begin(leaf));
      }
      std::sort(clause.leaf_positions.begin(), clause.leaf_positions.end());
    }
    resolved.clauses.push_back(std::move(clause));
  }
  for (const std::string& item : query.items) {
    auto id = dataset.item_dictionary().Lookup(item);
    if (id.ok()) {
      resolved.items.push_back(id.value());
    } else {
      resolved.impossible = true;
    }
  }
  std::sort(resolved.items.begin(), resolved.items.end());
  resolved.items.erase(
      std::unique(resolved.items.begin(), resolved.items.end()),
      resolved.items.end());
  return resolved;
}

bool MatchesExactly(const Dataset& dataset, const Clause& clause, size_t r) {
  return clause.match[static_cast<size_t>(dataset.value(r, clause.col).raw())];
}

bool HoldsItems(const Dataset& dataset, const std::vector<ItemId>& items,
                size_t r) {
  const std::vector<ItemId>& txn = dataset.items(r).raw();
  return std::includes(txn.begin(), txn.end(), items.begin(), items.end());
}

// For every original item, the ascending ids of the gens whose covers hold
// it (local recodings, which have no item_map).
std::vector<std::vector<int32_t>> GensOfItem(const TransactionRecoding& txn,
                                             size_t num_items) {
  std::vector<std::vector<int32_t>> gens_of_item(num_items);
  for (size_t g = 0; g < txn.gens.size(); ++g) {
    for (ItemId item : txn.gens[g].covers) {
      if (static_cast<size_t>(item) < num_items) {
        gens_of_item[static_cast<size_t>(item)].push_back(
            static_cast<int32_t>(g));
      }
    }
  }
  return gens_of_item;
}

// The share of `item` that the generalized record `record_gens` (sorted gen
// ids) contributes: 1/|covers| of the gen standing for the item in the
// record, 0 if none (or suppressed). A global recoding names that gen in its
// item_map; in a local one it is the smallest covering gen id the record
// holds.
double ItemShare(const TransactionRecoding& txn,
                 const std::vector<std::vector<int32_t>>& gens_of_item,
                 const std::vector<int32_t>& record_gens, ItemId item) {
  int32_t gen = kSuppressedGen;
  if (!txn.item_map.empty()) {
    int32_t g = txn.item_map[static_cast<size_t>(item)];
    if (g != kSuppressedGen &&
        std::binary_search(record_gens.begin(), record_gens.end(), g)) {
      gen = g;
    }
  } else {
    const std::vector<int32_t>& covering =
        gens_of_item[static_cast<size_t>(item)];
    for (int32_t g : record_gens) {
      if (std::binary_search(covering.begin(), covering.end(), g)) {
        gen = g;
        break;
      }
    }
  }
  if (gen == kSuppressedGen) return 0.0;
  return 1.0 / static_cast<double>(txn.gens[static_cast<size_t>(gen)].covers.size());
}

}  // namespace

Result<double> ExactCount(const Dataset& dataset, const CountQuery& query) {
  SECRETA_ASSIGN_OR_RETURN(Query q, Resolve(dataset, nullptr, query));
  if (q.impossible) return 0.0;
  double count = 0;
  for (size_t r = 0; r < dataset.num_records(); ++r) {
    bool ok = std::all_of(
        q.clauses.begin(), q.clauses.end(),
        [&](const Clause& clause) { return MatchesExactly(dataset, clause, r); });
    if (ok && !q.items.empty()) ok = HoldsItems(dataset, q.items, r);
    if (ok) count += 1;
  }
  return count;
}

Result<double> EstimatedCount(const Dataset& dataset,
                              const RelationalContext* rel_context,
                              const CountQuery& query,
                              const RelationalRecoding* relational,
                              const TransactionRecoding* transaction) {
  SECRETA_ASSIGN_OR_RETURN(Query q, Resolve(dataset, rel_context, query));
  if (q.impossible) return 0.0;
  if (relational != nullptr && rel_context == nullptr) {
    return Status::FailedPrecondition(
        "estimation over a relational recoding requires a context");
  }
  std::vector<std::vector<int32_t>> gens_of_item;
  if (transaction != nullptr && transaction->item_map.empty() &&
      !q.items.empty()) {
    gens_of_item = GensOfItem(*transaction, dataset.item_dictionary().size());
  }
  double total = 0;
  for (size_t r = 0; r < dataset.num_records(); ++r) {
    double p = 1.0;
    for (const Clause& clause : q.clauses) {
      if (p == 0.0) break;
      if (relational != nullptr && clause.hierarchy != nullptr) {
        // Fraction of the generalized node's leaves the clause matches: the
        // matching leaf positions inside the node's DFS interval.
        NodeId node = relational->at(r, clause.qi);
        int32_t begin = clause.hierarchy->leaf_interval_begin(node);
        int32_t end = clause.hierarchy->leaf_interval_end(node);
        auto lo = std::lower_bound(clause.leaf_positions.begin(),
                                   clause.leaf_positions.end(), begin);
        auto hi = std::lower_bound(clause.leaf_positions.begin(),
                                   clause.leaf_positions.end(), end);
        p *= static_cast<double>(hi - lo) / static_cast<double>(end - begin);
      } else {
        p *= MatchesExactly(dataset, clause, r) ? 1.0 : 0.0;
      }
    }
    if (p == 0.0) continue;
    if (!q.items.empty()) {
      if (transaction == nullptr) {
        if (!HoldsItems(dataset, q.items, r)) p = 0.0;
      } else {
        for (ItemId item : q.items) {
          p *= ItemShare(*transaction, gens_of_item, transaction->records[r],
                         item);
          if (p == 0.0) break;
        }
      }
    }
    total += p;
  }
  return total;
}

}  // namespace oracle
}  // namespace secreta
