#include "algo/transaction/cut.h"

#include <algorithm>

namespace secreta {

HierarchyCut::HierarchyCut(const TransactionContext& context)
    : context_(&context) {
  const Hierarchy& h = context.hierarchy();
  node_of_pos_.resize(h.num_leaves());
  first_item_under_.assign(h.num_nodes(), -1);
  for (size_t item = 0; item < context.num_items(); ++item) {
    NodeId leaf = context.Leaf(static_cast<ItemId>(item));
    node_of_pos_[static_cast<size_t>(h.leaf_interval_begin(leaf))] = leaf;
    // Items ascend, so a node already marked has all its ancestors marked.
    for (NodeId node = leaf;
         node != kNoNode && first_item_under_[static_cast<size_t>(node)] < 0;
         node = h.parent(node)) {
      first_item_under_[static_cast<size_t>(node)] = static_cast<ItemId>(item);
    }
  }
}

void HierarchyCut::RaiseTo(NodeId target) {
  const Hierarchy& h = context_->hierarchy();
  int32_t begin = h.leaf_interval_begin(target);
  int32_t end = h.leaf_interval_end(target);
  for (int32_t pos = begin; pos < end; ++pos) {
    node_of_pos_[static_cast<size_t>(pos)] = target;
  }
}

NodeId HierarchyCut::NodeOf(ItemId item) const {
  const Hierarchy& h = context_->hierarchy();
  NodeId leaf = context_->Leaf(item);
  return node_of_pos_[static_cast<size_t>(h.leaf_interval_begin(leaf))];
}

void HierarchyCut::Recode(const std::vector<size_t>& subset,
                          CutRecords* out) const {
  const Dataset& data = context_->dataset();
  out->records.resize(subset.size());
  out->gen_nodes.clear();
  out->item_gen.assign(context_->num_items(), kSuppressedGen);
  if (suppress_all_) {
    for (auto& rec : out->records) rec.clear();
    return;
  }
  for (size_t item = 0; item < out->item_gen.size(); ++item) {
    NodeId node = NodeOf(static_cast<ItemId>(item));
    auto first =
        static_cast<size_t>(first_item_under_[static_cast<size_t>(node)]);
    if (first == item) {
      out->item_gen[item] = static_cast<int32_t>(out->gen_nodes.size());
      out->gen_nodes.push_back(node);
    } else {
      out->item_gen[item] = out->item_gen[first];  // assigned at `first`
    }
  }
  for (size_t j = 0; j < subset.size(); ++j) {
    std::vector<int32_t>& rec = out->records[j];
    rec.clear();
    for (ItemId item : data.items(subset[j]).raw()) {
      rec.push_back(out->item_gen[static_cast<size_t>(item)]);
    }
    std::sort(rec.begin(), rec.end());
    rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
  }
}

CutRecoding HierarchyCut::Materialize(const std::vector<size_t>& subset) const {
  const Hierarchy& h = context_->hierarchy();
  CutRecords view;
  Recode(subset, &view);
  CutRecoding out;
  out.recoding.records = std::move(view.records);
  out.recoding.item_map = std::move(view.item_gen);
  out.gen_nodes = std::move(view.gen_nodes);
  if (suppress_all_) {
    for (size_t row : subset) {
      out.recoding.suppressed_occurrences +=
          context_->dataset().items(row).raw().size();
    }
  }
  for (NodeId node : out.gen_nodes) {
    std::vector<ItemId> covers;
    for (NodeId leaf : h.LeavesUnder(node)) {
      covers.push_back(context_->ItemOfLeaf(leaf));
    }
    std::sort(covers.begin(), covers.end());
    out.recoding.gens.push_back({h.label(node), std::move(covers)});
  }
  return out;
}

}  // namespace secreta
