// Generalization hierarchies: rooted trees over an attribute domain (or the
// transaction item domain). Leaves are original values; interior nodes are
// generalized values. All hierarchy-based algorithms (Incognito, Top-down,
// Bottom-up, Cluster, Apriori, LRA, VPA) operate on these trees.

#ifndef SECRETA_HIERARCHY_HIERARCHY_H_
#define SECRETA_HIERARCHY_HIERARCHY_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/dictionary.h"

namespace secreta {

/// Dense id of a node within one Hierarchy.
using NodeId = int32_t;
inline constexpr NodeId kNoNode = -1;

/// \brief A generalization hierarchy (rooted tree, immutable once finalized).
///
/// After Finalize(), leaves are numbered in DFS order and every node knows the
/// contiguous leaf interval it covers, which makes subtree tests and leaf
/// counts O(1). Finalize() also builds a sparse table over the DFS pre-order
/// that answers LCA queries in O(1).
class Hierarchy {
 public:
  Hierarchy() = default;

  /// Builds a hierarchy from leaf-to-root label paths (one per leaf), the
  /// format of hierarchy files: `leaf;gen1;...;root`. Shared suffixes are
  /// merged; all paths must end in the same root label.
  static Result<Hierarchy> FromPaths(
      const std::vector<std::vector<std::string>>& leaf_to_root_paths,
      std::string attribute_name = "");

  // -- incremental construction (used by builders) ---------------------------

  /// Creates the root node; must be the first node created.
  Result<NodeId> CreateRoot(const std::string& label);
  /// Creates a child of `parent`.
  Result<NodeId> CreateNode(const std::string& label, NodeId parent);
  /// Freezes the tree and computes DFS leaf order, depths and leaf intervals.
  /// Fails if the tree is empty or any interior node has no leaf descendant.
  Status Finalize();

  bool finalized() const { return finalized_; }

  // -- topology ---------------------------------------------------------------

  const std::string& attribute_name() const { return attribute_name_; }
  void set_attribute_name(std::string name) { attribute_name_ = std::move(name); }

  size_t num_nodes() const { return labels_.size(); }
  size_t num_leaves() const { return leaf_order_.size(); }
  NodeId root() const { return root_; }
  NodeId parent(NodeId node) const { return parents_[static_cast<size_t>(node)]; }
  const std::vector<NodeId>& children(NodeId node) const {
    return children_[static_cast<size_t>(node)];
  }
  bool IsLeaf(NodeId node) const {
    return children_[static_cast<size_t>(node)].empty();
  }
  const std::string& label(NodeId node) const {
    return labels_[static_cast<size_t>(node)];
  }
  /// Distance from the root (root has depth 0).
  int depth(NodeId node) const { return depths_[static_cast<size_t>(node)]; }
  /// Max leaf depth; a full-domain recoding level is in [0, height()].
  int height() const { return height_; }

  /// Leaves are numbered by DFS position; `node` covers the contiguous
  /// position interval [leaf_interval_begin, leaf_interval_end).
  int32_t leaf_interval_begin(NodeId node) const {
    return leaf_begin_[static_cast<size_t>(node)];
  }
  int32_t leaf_interval_end(NodeId node) const {
    return leaf_end_[static_cast<size_t>(node)];
  }

  /// Number of leaves under `node` (1 for a leaf).
  size_t LeafCount(NodeId node) const {
    return static_cast<size_t>(leaf_end_[static_cast<size_t>(node)] -
                               leaf_begin_[static_cast<size_t>(node)]);
  }

  /// Leaves under `node` in DFS order.
  std::vector<NodeId> LeavesUnder(NodeId node) const;

  /// True if `ancestor` is `node` or a proper ancestor of it.
  bool IsAncestorOrSelf(NodeId ancestor, NodeId node) const {
    size_t a = static_cast<size_t>(ancestor);
    size_t n = static_cast<size_t>(node);
    return leaf_begin_[a] <= leaf_begin_[n] && leaf_end_[n] <= leaf_end_[a] &&
           depths_[a] <= depths_[n];
  }

  /// Lowest common ancestor of two nodes, in O(1).
  ///
  /// For a != b with pre(a) < pre(b) in DFS pre-order, every node w with
  /// pre(a) < pre(w) <= pre(b) lies in the LCA's subtree strictly below the
  /// LCA, and the shallowest of them is the LCA's child; so pre(LCA) is the
  /// minimum of pre(parent(w)) over that range, which two overlapping
  /// power-of-two windows of the sparse table cover.
  NodeId Lca(NodeId a, NodeId b) const {
    if (a == b) return a;
    size_t lo = static_cast<size_t>(preorder_[static_cast<size_t>(a)]);
    size_t hi = static_cast<size_t>(preorder_[static_cast<size_t>(b)]);
    if (lo > hi) std::swap(lo, hi);
    // Table columns are pre-order positions 1..n-1, so (lo, hi] is columns
    // [lo, hi).
    size_t level = static_cast<size_t>(std::bit_width(hi - lo)) - 1;
    const int32_t* row = lca_table_.data() + level * (num_nodes() - 1);
    int32_t top = std::min(row[lo], row[hi - (size_t{1} << level)]);
    return by_preorder_[static_cast<size_t>(top)];
  }
  /// Lowest common ancestor of a non-empty set of nodes: the LCA of its
  /// first and last node in DFS pre-order. Fails on an empty set.
  Result<NodeId> LcaOfSet(const std::vector<NodeId>& nodes) const;

  /// The ancestor reached by walking `level` steps up from `node` (clamped at
  /// the root). level 0 is `node` itself. This defines full-domain recoding.
  NodeId AncestorAtLevel(NodeId node, int level) const;

  // -- label / value binding ---------------------------------------------------

  /// Leaf whose label equals `value`.
  Result<NodeId> LeafOf(const std::string& value) const;
  /// Any node (leaf or interior) whose label equals `label`.
  Result<NodeId> NodeOf(const std::string& label) const;

  /// Numeric range [lo, hi] covered by `node`; available only when every leaf
  /// label parses as a number (computed at Finalize()).
  bool has_numeric_ranges() const { return has_numeric_ranges_; }
  double range_lo(NodeId node) const { return range_lo_[static_cast<size_t>(node)]; }
  double range_hi(NodeId node) const { return range_hi_[static_cast<size_t>(node)]; }

  /// Leaf-to-root label path for leaf `leaf` (for file export).
  std::vector<std::string> PathToRoot(NodeId leaf) const;

  /// All leaf node ids in DFS order.
  const std::vector<NodeId>& leaves() const { return leaf_order_; }

  /// Every node id in DFS post-order (children before parents, root last).
  /// Lets bottom-up aggregations — e.g. the query index's per-clause leaf
  /// overlap counts — run in O(nodes) without recursion.
  const std::vector<NodeId>& PostOrder() const { return post_order_; }

  /// Verifies structural invariants of a finalized hierarchy: parent/child
  /// symmetry, DFS depths, contiguous and partitioning leaf intervals, and
  /// unique leaf labels. Intended for tests and after deserialization.
  Status Validate() const;

 private:
  std::string attribute_name_;
  NodeId root_ = kNoNode;
  std::vector<std::string> labels_;
  std::vector<NodeId> parents_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<int> depths_;
  std::vector<int32_t> leaf_begin_;
  std::vector<int32_t> leaf_end_;
  std::vector<NodeId> leaf_order_;  // leaf ids by DFS position
  std::vector<NodeId> post_order_;  // all ids, children before parents
  std::vector<int32_t> preorder_;   // node -> DFS pre-order position
  std::vector<NodeId> by_preorder_;  // DFS pre-order position -> node
  // LCA sparse table: row j, column i (a row per power of two, n - 1
  // columns) holds the minimum of pre(parent(node at position p)) over
  // positions p in [i + 1, i + 1 + 2^j).
  std::vector<int32_t> lca_table_;
  std::unordered_map<std::string, NodeId> leaf_index_;
  std::unordered_map<std::string, NodeId> node_index_;
  std::vector<double> range_lo_;
  std::vector<double> range_hi_;
  bool has_numeric_ranges_ = false;
  int height_ = 0;
  bool finalized_ = false;
};

/// Maps every dictionary value of a dataset column to its hierarchy leaf.
/// Fails if some value has no leaf with a matching label.
Result<std::vector<NodeId>> MapDictionaryToLeaves(const Hierarchy& hierarchy,
                                                  const Dictionary& dictionary);

}  // namespace secreta

#endif  // SECRETA_HIERARCHY_HIERARCHY_H_
