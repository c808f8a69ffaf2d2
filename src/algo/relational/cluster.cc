#include "algo/relational/cluster.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/random.h"
#include "metrics/information_loss.h"
#include "obs/trace.h"

namespace secreta {

namespace {

// Candidates scanned per greedy addition: a random sample of the remaining
// records, or all of them when fewer remain. A larger pool gives tighter
// clusters and costs proportionally more.
constexpr size_t kCandidatePool = 192;

// Flattened per-record context: record -> leaf per QI (skips the
// dataset-value + leaf-map double indirection in the O(clusters x k x pool)
// cost scans) and node -> NCP per hierarchy (NodeNcp is pure per node).
struct FlatContext {
  std::vector<std::vector<NodeId>> leaf_cols;  // qi -> per-record leaf
  std::vector<std::vector<double>> node_ncp;   // qi -> per-node NCP

  explicit FlatContext(const RelationalContext& context) {
    size_t q = context.num_qi();
    size_t n = context.num_records();
    leaf_cols.resize(q);
    node_ncp.resize(q);
    for (size_t qi = 0; qi < q; ++qi) {
      leaf_cols[qi].resize(n);
      for (size_t r = 0; r < n; ++r) leaf_cols[qi][r] = context.Leaf(r, qi);
      node_ncp[qi] = NodeNcpTable(context.hierarchy(qi));
    }
  }
};

// Incremental cluster head: per-QI LCA of all members so far.
struct ClusterHead {
  std::vector<NodeId> lca;       // per QI
  std::vector<size_t> members;   // record indices

  // NCP sum of the head after hypothetically adding `row` (lower = closer).
  double CostWith(const RelationalContext& context, const FlatContext& flat,
                  size_t row) const {
    double cost = 0;
    for (size_t qi = 0; qi < lca.size(); ++qi) {
      const Hierarchy& h = context.hierarchy(qi);
      NodeId joined = h.Lca(lca[qi], flat.leaf_cols[qi][row]);
      cost += flat.node_ncp[qi][static_cast<size_t>(joined)];
    }
    return cost;
  }

  void Add(const RelationalContext& context, const FlatContext& flat,
           size_t row) {
    for (size_t qi = 0; qi < lca.size(); ++qi) {
      const Hierarchy& h = context.hierarchy(qi);
      lca[qi] = h.Lca(lca[qi], flat.leaf_cols[qi][row]);
    }
    members.push_back(row);
  }
};

}  // namespace

Result<RelationalRecoding> ClusterAnonymizer::Anonymize(
    const RelationalContext& context, const AnonParams& params) {
  SECRETA_TRACE_SPAN("algo.Cluster");
  SECRETA_RETURN_IF_ERROR(params.Validate());
  size_t n = context.num_records();
  size_t k = static_cast<size_t>(params.k);
  if (n < k) {
    return Status::FailedPrecondition(
        "dataset has fewer records than k; k-anonymity is unattainable");
  }
  size_t q = context.num_qi();
  FlatContext flat(context);
  Rng rng(params.seed);
  std::vector<size_t> remaining(n);
  for (size_t i = 0; i < n; ++i) remaining[i] = i;
  auto take = [&](size_t pos) {
    size_t row = remaining[pos];
    remaining[pos] = remaining.back();
    remaining.pop_back();
    return row;
  };

  // Scratch for the leftover records' parallel scan over clusters: every
  // cluster's cost is computed independently, then a serial argmin applies
  // the strict-< first-minimum rule of a sequential loop — identical picks,
  // identical clusters, with or without a pool. The greedy step's candidate
  // scan stays serial: its at most kCandidatePool costs take a few
  // microseconds, less than a fan-out over the pool costs.
  std::vector<double> costs;
  std::vector<ClusterHead> clusters;
  // The greedy step's ClusterHead::CostWith, memoized per QI by the
  // candidate's leaf: a step's candidates share few leaves, and the joined
  // node's NCP depends on the head and the leaf alone. A term is valid while
  // its stamp is the current step. The terms are the doubles CostWith adds,
  // summed in the same QI order, so the costs are bit-identical.
  std::vector<std::vector<double>> term(q);     // qi -> per-leaf NCP term
  std::vector<std::vector<uint32_t>> stamp(q);  // qi -> step that wrote term
  for (size_t qi = 0; qi < q; ++qi) {
    term[qi].resize(context.hierarchy(qi).num_nodes());
    stamp[qi].assign(context.hierarchy(qi).num_nodes(), 0);
  }
  uint32_t step = 0;
  while (remaining.size() >= k) {
    SECRETA_RETURN_IF_ERROR(CheckCancel("cluster seed"));
    // Seed a new cluster with a random remaining record.
    size_t seed_pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(remaining.size() - 1)));
    ClusterHead head;
    head.lca.resize(q);
    size_t seed_row = take(seed_pos);
    for (size_t qi = 0; qi < q; ++qi) {
      head.lca[qi] = flat.leaf_cols[qi][seed_row];
    }
    head.members.push_back(seed_row);
    // Greedily add the closest record until the cluster has k members,
    // scanning a bounded candidate pool for scalability.
    while (head.members.size() < k) {
      size_t pool = std::min(kCandidatePool, remaining.size());
      std::vector<size_t> candidates;
      if (pool == remaining.size()) {
        candidates.resize(pool);
        for (size_t i = 0; i < pool; ++i) candidates[i] = i;
      } else {
        candidates = rng.Sample(remaining.size(), pool);
      }
      ++step;
      auto cost_with = [&](size_t row) {
        double cost = 0;
        for (size_t qi = 0; qi < q; ++qi) {
          NodeId leaf = flat.leaf_cols[qi][row];
          size_t slot = static_cast<size_t>(leaf);
          if (stamp[qi][slot] != step) {
            stamp[qi][slot] = step;
            NodeId joined = context.hierarchy(qi).Lca(head.lca[qi], leaf);
            term[qi][slot] = flat.node_ncp[qi][static_cast<size_t>(joined)];
          }
          cost += term[qi][slot];
        }
        return cost;
      };
      size_t best_pos = candidates[0];
      double best_cost = cost_with(remaining[best_pos]);
      for (size_t ci = 1; ci < candidates.size(); ++ci) {
        double cost = cost_with(remaining[candidates[ci]]);
        if (cost < best_cost) {
          best_cost = cost;
          best_pos = candidates[ci];
        }
      }
      head.Add(context, flat, take(best_pos));
    }
    clusters.push_back(std::move(head));
  }
  // Fewer than k records remain: each joins the cluster it dilates least.
  for (size_t row : remaining) {
    costs.resize(clusters.size());
    ParallelFor(pool_, clusters.size(), [&](size_t c) {
      costs[c] = clusters[c].CostWith(context, flat, row);
    });
    size_t best_cluster = 0;
    double best_cost = costs[0];
    for (size_t c = 1; c < clusters.size(); ++c) {
      if (costs[c] < best_cost) {
        best_cost = costs[c];
        best_cluster = c;
      }
    }
    clusters[best_cluster].Add(context, flat, row);
  }
  RelationalRecoding recoding(n, q);
  for (const ClusterHead& cluster : clusters) {
    for (size_t row : cluster.members) {
      for (size_t qi = 0; qi < q; ++qi) {
        recoding.set(row, qi, cluster.lca[qi]);
      }
    }
  }
  return recoding;
}

}  // namespace secreta
