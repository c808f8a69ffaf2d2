#include "algo/relational/topdown.h"

#include <algorithm>
#include <unordered_map>

#include "algo/relational/cut_state.h"
#include "common/parallel.h"
#include "core/equivalence.h"
#include "metrics/information_loss.h"
#include "obs/trace.h"

namespace secreta {

Result<RelationalRecoding> TopDownAnonymizer::Anonymize(
    const RelationalContext& context, const AnonParams& params) {
  SECRETA_TRACE_SPAN("algo.TopDown");
  SECRETA_RETURN_IF_ERROR(params.Validate());
  size_t n = context.num_records();
  if (n < static_cast<size_t>(params.k)) {
    return Status::FailedPrecondition(
        "dataset has fewer records than k; k-anonymity is unattainable");
  }
  size_t q = context.num_qi();
  RelationalCutState cut(context, /*at_leaves=*/false);

  // Iteration-invariant flattening: per-record leaves and per-node NCP, so
  // the inner candidate scans touch flat arrays only.
  std::vector<std::vector<NodeId>> leaf_cols(q);
  std::vector<std::vector<double>> node_ncp(q);
  // Per-(qi, node) record buckets, rebuilt each iteration in one O(n) pass
  // per QI: a candidate then scans only the records it would actually split
  // instead of the full dataset (the seed scanned all n records for every
  // candidate cut node).
  std::vector<std::vector<std::vector<uint32_t>>> buckets(q);
  for (size_t qi = 0; qi < q; ++qi) {
    const Hierarchy& h = context.hierarchy(qi);
    leaf_cols[qi].resize(n);
    for (size_t r = 0; r < n; ++r) leaf_cols[qi][r] = context.Leaf(r, qi);
    node_ncp[qi] = NodeNcpTable(h);
    buckets[qi].resize(h.num_nodes());
  }

  struct Candidate {
    size_t qi;
    NodeId node;
    bool valid = false;
    double gain = 0;
  };

  while (true) {
    SECRETA_RETURN_IF_ERROR(CheckCancel("topdown iteration"));
    RelationalRecoding recoding = cut.BuildRecoding();
    EquivalenceClasses classes = GroupByRecoding(recoding);
    // Bucket records by their current recode node, ascending record order
    // (the gain accumulation order of the sequential scan).
    std::vector<Candidate> candidates;
    for (size_t qi = 0; qi < q; ++qi) {
      const Hierarchy& h = context.hierarchy(qi);
      for (NodeId node : cut.CutNodes(qi)) {
        if (h.IsLeaf(node)) continue;
        candidates.push_back(Candidate{qi, node});
        buckets[qi][static_cast<size_t>(node)].clear();
      }
    }
    for (size_t qi = 0; qi < q; ++qi) {
      bool qi_has_candidate = false;
      for (const Candidate& c : candidates) qi_has_candidate |= (c.qi == qi);
      if (!qi_has_candidate) continue;
      auto& per_node = buckets[qi];
      for (size_t r = 0; r < n; ++r) {
        per_node[static_cast<size_t>(recoding.at(r, qi))].push_back(
            static_cast<uint32_t>(r));
      }
    }
    // Candidate specializations evaluate independently over immutable state;
    // the serial fold below applies the sequential first-max rule, so the
    // chosen split is identical with or without a pool.
    ParallelFor(pool_, candidates.size(), [&](size_t c) {
      Candidate& cand = candidates[c];
      const Hierarchy& h = context.hierarchy(cand.qi);
      const std::vector<uint32_t>& rows =
          buckets[cand.qi][static_cast<size_t>(cand.node)];
      if (rows.empty()) return;  // node not used by any record
      // Validity: splitting every group whose value at `qi` is `node` by
      // the child subtree of each member must leave no group in (0, k).
      // Simultaneously accumulate the utility gain (record-weighted NCP
      // reduction).
      double this_ncp = node_ncp[cand.qi][static_cast<size_t>(cand.node)];
      double gain = 0;
      int node_depth = h.depth(cand.node);
      std::unordered_map<uint64_t, size_t> split_sizes;
      for (uint32_t r : rows) {
        NodeId leaf = leaf_cols[cand.qi][r];
        // Child of `node` on the path to `leaf`.
        NodeId child =
            h.AncestorAtLevel(leaf, h.depth(leaf) - node_depth - 1);
        gain += this_ncp - node_ncp[cand.qi][static_cast<size_t>(child)];
        uint64_t key = (static_cast<uint64_t>(classes.group_of[r]) << 32) |
                       static_cast<uint32_t>(child);
        ++split_sizes[key];
      }
      bool valid = true;
      for (const auto& [key, size] : split_sizes) {
        if (size < static_cast<size_t>(params.k)) {
          valid = false;
          break;
        }
      }
      cand.valid = valid;
      cand.gain = gain;
    });
    bool found = false;
    size_t best_qi = 0;
    NodeId best_node = kNoNode;
    double best_gain = 0;
    for (const Candidate& cand : candidates) {
      if (!cand.valid) continue;
      if (!found || cand.gain > best_gain) {
        found = true;
        best_qi = cand.qi;
        best_node = cand.node;
        best_gain = cand.gain;
      }
    }
    if (!found) return recoding;
    cut.SpecializeNode(best_qi, best_node);
  }
}

}  // namespace secreta
