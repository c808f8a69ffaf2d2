#include "algo/relational/bottomup.h"

#include <algorithm>
#include <span>

#include "algo/relational/cut_state.h"
#include "core/equivalence.h"
#include "metrics/information_loss.h"
#include "obs/trace.h"

namespace secreta {

Result<RelationalRecoding> BottomUpAnonymizer::Anonymize(
    const RelationalContext& context, const AnonParams& params) {
  SECRETA_TRACE_SPAN("algo.BottomUp");
  SECRETA_RETURN_IF_ERROR(params.Validate());
  size_t n = context.num_records();
  if (n < static_cast<size_t>(params.k)) {
    return Status::FailedPrecondition(
        "dataset has fewer records than k; k-anonymity is unattainable");
  }
  size_t q = context.num_qi();
  RelationalCutState cut(context, /*at_leaves=*/true);

  // Per QI: record count per leaf position (fixed) for loss weighting.
  std::vector<std::vector<double>> pos_records(q);
  for (size_t qi = 0; qi < q; ++qi) {
    const Hierarchy& h = context.hierarchy(qi);
    pos_records[qi].assign(h.num_leaves() + 1, 0);
    for (size_t r = 0; r < n; ++r) {
      pos_records[qi][static_cast<size_t>(
          h.leaf_interval_begin(context.Leaf(r, qi)))] += 1;
    }
    // Prefix sums so any interval's record mass is O(1).
    for (size_t p = 1; p < pos_records[qi].size(); ++p) {
      pos_records[qi][p] += pos_records[qi][p - 1];
    }
  }
  auto records_under = [&](size_t qi, NodeId node) {
    const Hierarchy& h = context.hierarchy(qi);
    return pos_records[qi][static_cast<size_t>(h.leaf_interval_end(node))] -
           pos_records[qi][static_cast<size_t>(h.leaf_interval_begin(node))];
  };

  while (true) {
    RelationalRecoding recoding = cut.BuildRecoding();
    EquivalenceClasses classes = GroupByRecoding(recoding);
    if (classes.MinGroupSize() >= static_cast<size_t>(params.k)) {
      return recoding;
    }
    // Violating-record mass per leaf position, per QI (prefix-summed).
    std::vector<std::vector<double>> viol(q);
    for (size_t qi = 0; qi < q; ++qi) {
      viol[qi].assign(context.hierarchy(qi).num_leaves() + 1, 0);
    }
    for (size_t c = 0; c < classes.num_groups(); ++c) {
      std::span<const uint32_t> group = classes.groups[c];
      if (group.size() >= static_cast<size_t>(params.k)) continue;
      for (uint32_t r : group) {
        for (size_t qi = 0; qi < q; ++qi) {
          const Hierarchy& h = context.hierarchy(qi);
          viol[qi][static_cast<size_t>(
              h.leaf_interval_begin(context.Leaf(r, qi)))] += 1;
        }
      }
    }
    for (size_t qi = 0; qi < q; ++qi) {
      for (size_t p = 1; p < viol[qi].size(); ++p) {
        viol[qi][p] += viol[qi][p - 1];
      }
    }
    // Candidate raises: parents of current cut nodes. Score favours low
    // record-weighted NCP increase and high coverage of violating records.
    bool found = false;
    size_t best_qi = 0;
    NodeId best_target = kNoNode;
    double best_score = 0;
    for (size_t qi = 0; qi < q; ++qi) {
      const Hierarchy& h = context.hierarchy(qi);
      NodeId previous_parent = kNoNode;
      for (NodeId node : cut.CutNodes(qi)) {
        if (node == h.root()) continue;
        NodeId parent = h.parent(node);
        if (parent == previous_parent) continue;  // dedupe siblings
        previous_parent = parent;
        double parent_ncp = NodeNcp(h, parent);
        // Loss: every record under `parent` moves from its current node's
        // NCP to the parent's. Upper-bound the current NCP by the node's own
        // (other cut nodes under parent have NCP <= parent's as well).
        double loss = 0;
        for (NodeId sib : h.children(parent)) {
          double mass = records_under(qi, sib);
          // Current cut node for sib's leaves is at-or-below sib; use sib's
          // NCP as the pre-raise level (exact for full-subtree cuts created
          // by this algorithm after sib was raised; optimistic otherwise).
          loss += mass * (parent_ncp - NodeNcp(h, sib));
        }
        double covered_viol =
            viol[qi][static_cast<size_t>(h.leaf_interval_end(parent))] -
            viol[qi][static_cast<size_t>(h.leaf_interval_begin(parent))];
        if (covered_viol <= 0) continue;  // raise would not help anybody
        double score = loss / covered_viol;
        if (!found || score < best_score) {
          found = true;
          best_qi = qi;
          best_target = parent;
          best_score = score;
        }
      }
    }
    if (!found) {
      // No raise covers a violating record (can only happen when every QI of
      // every violator is already at the root), yet groups are still small:
      // impossible when n >= k because all-root means one single group.
      return Status::Internal("bottom-up generalization cannot progress");
    }
    cut.RaiseTo(best_qi, best_target);
  }
}

}  // namespace secreta
