#include "hierarchy/hierarchy.h"

#include <algorithm>

#include "common/string_util.h"

namespace secreta {

Result<Hierarchy> Hierarchy::FromPaths(
    const std::vector<std::vector<std::string>>& leaf_to_root_paths,
    std::string attribute_name) {
  if (leaf_to_root_paths.empty()) {
    return Status::InvalidArgument("hierarchy has no paths");
  }
  Hierarchy h;
  h.attribute_name_ = std::move(attribute_name);
  // Index nodes by their root-to-node label path to merge shared suffixes of
  // the leaf-to-root lines. Two nodes may share a label if they are in
  // different branches, except leaves which must be globally unique.
  std::unordered_map<std::string, NodeId> by_path;
  const std::string& root_label = leaf_to_root_paths[0].back();
  SECRETA_ASSIGN_OR_RETURN(NodeId root, h.CreateRoot(root_label));
  by_path[root_label] = root;
  for (const auto& path : leaf_to_root_paths) {
    if (path.empty()) return Status::InvalidArgument("empty hierarchy path");
    if (path.back() != root_label) {
      return Status::InvalidArgument(
          "hierarchy paths disagree on the root: '" + path.back() + "' vs '" +
          root_label + "'");
    }
    NodeId parent = root;
    std::string key = root_label;
    // Walk from the element before the root down to the leaf.
    for (size_t i = path.size() - 1; i-- > 0;) {
      key += '\x1f';
      key += path[i];
      auto it = by_path.find(key);
      if (it != by_path.end()) {
        parent = it->second;
        continue;
      }
      SECRETA_ASSIGN_OR_RETURN(NodeId node, h.CreateNode(path[i], parent));
      by_path[key] = node;
      parent = node;
    }
  }
  SECRETA_RETURN_IF_ERROR(h.Finalize());
  return h;
}

Result<NodeId> Hierarchy::CreateRoot(const std::string& label) {
  if (root_ != kNoNode) return Status::FailedPrecondition("root already exists");
  if (finalized_) return Status::FailedPrecondition("hierarchy is finalized");
  root_ = 0;
  labels_.push_back(label);
  parents_.push_back(kNoNode);
  children_.emplace_back();
  return root_;
}

Result<NodeId> Hierarchy::CreateNode(const std::string& label, NodeId parent) {
  if (finalized_) return Status::FailedPrecondition("hierarchy is finalized");
  if (parent < 0 || static_cast<size_t>(parent) >= labels_.size()) {
    return Status::OutOfRange("parent node id out of range");
  }
  NodeId id = static_cast<NodeId>(labels_.size());
  labels_.push_back(label);
  parents_.push_back(parent);
  children_.emplace_back();
  children_[static_cast<size_t>(parent)].push_back(id);
  return id;
}

Status Hierarchy::Finalize() {
  if (finalized_) return Status::FailedPrecondition("already finalized");
  if (root_ == kNoNode) return Status::FailedPrecondition("hierarchy is empty");
  size_t n = labels_.size();
  depths_.assign(n, 0);
  leaf_begin_.assign(n, 0);
  leaf_end_.assign(n, 0);
  leaf_order_.clear();
  post_order_.clear();
  post_order_.reserve(n);
  preorder_.assign(n, 0);
  by_preorder_.clear();
  by_preorder_.reserve(n);
  // Iterative DFS assigning depths and leaf intervals.
  struct Frame {
    NodeId node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back({root_, 0});
  depths_[static_cast<size_t>(root_)] = 0;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    size_t idx = static_cast<size_t>(frame.node);
    if (frame.next_child == 0) {
      preorder_[idx] = static_cast<int32_t>(by_preorder_.size());
      by_preorder_.push_back(frame.node);
      leaf_begin_[idx] = static_cast<int32_t>(leaf_order_.size());
      if (children_[idx].empty()) leaf_order_.push_back(frame.node);
    }
    if (frame.next_child < children_[idx].size()) {
      NodeId child = children_[idx][frame.next_child++];
      depths_[static_cast<size_t>(child)] = depths_[idx] + 1;
      stack.push_back({child, 0});
    } else {
      leaf_end_[idx] = static_cast<int32_t>(leaf_order_.size());
      post_order_.push_back(frame.node);
      stack.pop_back();
    }
  }
  // LCA sparse table (see Lca): row 0 is pre(parent) of each non-root node
  // by pre-order position, row j the minimum over two halves of row j - 1.
  size_t columns = n - 1;
  size_t levels = static_cast<size_t>(std::bit_width(columns));
  lca_table_.assign(levels * columns, 0);
  for (size_t i = 0; i < columns; ++i) {
    lca_table_[i] = preorder_[static_cast<size_t>(
        parents_[static_cast<size_t>(by_preorder_[i + 1])])];
  }
  for (size_t j = 1; j < levels; ++j) {
    const int32_t* below = lca_table_.data() + (j - 1) * columns;
    int32_t* row = lca_table_.data() + j * columns;
    size_t half = size_t{1} << (j - 1);
    for (size_t i = 0; i + 2 * half <= columns; ++i) {
      row[i] = std::min(below[i], below[i + half]);
    }
  }
  height_ = 0;
  leaf_index_.clear();
  node_index_.clear();
  for (NodeId leaf : leaf_order_) {
    height_ = std::max(height_, depths_[static_cast<size_t>(leaf)]);
    auto [it, inserted] = leaf_index_.emplace(labels_[static_cast<size_t>(leaf)], leaf);
    if (!inserted) {
      return Status::InvalidArgument("duplicate leaf label: '" + it->first + "'");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    node_index_.emplace(labels_[i], static_cast<NodeId>(i));
  }
  // Numeric ranges: available iff all leaf labels parse as numbers.
  has_numeric_ranges_ = true;
  for (NodeId leaf : leaf_order_) {
    if (!LooksNumeric(labels_[static_cast<size_t>(leaf)])) {
      has_numeric_ranges_ = false;
      break;
    }
  }
  if (has_numeric_ranges_) {
    range_lo_.assign(n, 0);
    range_hi_.assign(n, 0);
    // Leaves first, then propagate over the DFS intervals.
    std::vector<double> leaf_values(leaf_order_.size());
    for (size_t i = 0; i < leaf_order_.size(); ++i) {
      leaf_values[i] =
          ParseDouble(labels_[static_cast<size_t>(leaf_order_[i])]).value();
    }
    for (size_t i = 0; i < n; ++i) {
      double lo = leaf_values[static_cast<size_t>(leaf_begin_[i])];
      double hi = lo;
      for (int32_t p = leaf_begin_[i]; p < leaf_end_[i]; ++p) {
        lo = std::min(lo, leaf_values[static_cast<size_t>(p)]);
        hi = std::max(hi, leaf_values[static_cast<size_t>(p)]);
      }
      range_lo_[i] = lo;
      range_hi_[i] = hi;
    }
  }
  finalized_ = true;
  return Status::OK();
}

std::vector<NodeId> Hierarchy::LeavesUnder(NodeId node) const {
  size_t idx = static_cast<size_t>(node);
  return std::vector<NodeId>(
      leaf_order_.begin() + leaf_begin_[idx],
      leaf_order_.begin() + leaf_end_[idx]);
}

Result<NodeId> Hierarchy::LcaOfSet(const std::vector<NodeId>& nodes) const {
  if (nodes.empty()) return Status::InvalidArgument("LCA of empty set");
  // Every common ancestor's subtree is a pre-order interval holding the
  // first and the last node, and so every node between them.
  auto by_pre = [&](NodeId x, NodeId y) {
    return preorder_[static_cast<size_t>(x)] < preorder_[static_cast<size_t>(y)];
  };
  auto [first, last] = std::minmax_element(nodes.begin(), nodes.end(), by_pre);
  return Lca(*first, *last);
}

NodeId Hierarchy::AncestorAtLevel(NodeId node, int level) const {
  for (int i = 0; i < level && node != root_; ++i) node = parent(node);
  return node;
}

Result<NodeId> Hierarchy::LeafOf(const std::string& value) const {
  auto it = leaf_index_.find(value);
  if (it == leaf_index_.end()) {
    return Status::NotFound("no hierarchy leaf labeled '" + value + "'" +
                            (attribute_name_.empty()
                                 ? std::string()
                                 : " in hierarchy of " + attribute_name_));
  }
  return it->second;
}

Result<NodeId> Hierarchy::NodeOf(const std::string& label) const {
  auto it = node_index_.find(label);
  if (it == node_index_.end()) {
    return Status::NotFound("no hierarchy node labeled '" + label + "'");
  }
  return it->second;
}

std::vector<std::string> Hierarchy::PathToRoot(NodeId leaf) const {
  std::vector<std::string> path;
  NodeId node = leaf;
  while (node != kNoNode) {
    path.push_back(label(node));
    node = parent(node);
  }
  return path;
}

Status Hierarchy::Validate() const {
  if (!finalized_) return Status::FailedPrecondition("hierarchy not finalized");
  size_t n = labels_.size();
  if (root_ != 0) return Status::Internal("root must be node 0");
  if (parents_[0] != kNoNode) return Status::Internal("root has a parent");
  size_t leaf_count = 0;
  for (size_t i = 0; i < n; ++i) {
    NodeId id = static_cast<NodeId>(i);
    // Parent/child symmetry.
    if (id != root_) {
      NodeId p = parents_[i];
      if (p < 0 || static_cast<size_t>(p) >= n) {
        return Status::Internal("parent id out of range");
      }
      const auto& siblings = children_[static_cast<size_t>(p)];
      if (std::find(siblings.begin(), siblings.end(), id) == siblings.end()) {
        return Status::Internal("node missing from its parent's children");
      }
      if (depths_[i] != depths_[static_cast<size_t>(p)] + 1) {
        return Status::Internal("depth inconsistent with parent");
      }
    }
    // Leaf intervals: children partition the parent's interval in order.
    if (children_[i].empty()) {
      ++leaf_count;
      if (leaf_end_[i] - leaf_begin_[i] != 1) {
        return Status::Internal("leaf interval must have length 1");
      }
    } else {
      int32_t cursor = leaf_begin_[i];
      for (NodeId child : children_[i]) {
        if (leaf_begin_[static_cast<size_t>(child)] != cursor) {
          return Status::Internal("child intervals not contiguous");
        }
        cursor = leaf_end_[static_cast<size_t>(child)];
      }
      if (cursor != leaf_end_[i]) {
        return Status::Internal("children do not cover the parent interval");
      }
    }
  }
  if (leaf_count != leaf_order_.size()) {
    return Status::Internal("leaf count mismatch");
  }
  if (leaf_index_.size() != leaf_count) {
    return Status::Internal("duplicate leaf labels");
  }
  return Status::OK();
}

Result<std::vector<NodeId>> MapDictionaryToLeaves(const Hierarchy& hierarchy,
                                                  const Dictionary& dictionary) {
  std::vector<NodeId> mapping(dictionary.size(), kNoNode);
  for (size_t i = 0; i < dictionary.size(); ++i) {
    SECRETA_ASSIGN_OR_RETURN(
        mapping[i], hierarchy.LeafOf(dictionary.value(static_cast<ValueId>(i))));
  }
  return mapping;
}

}  // namespace secreta
