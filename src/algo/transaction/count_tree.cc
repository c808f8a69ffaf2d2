#include "algo/transaction/count_tree.h"

#include <algorithm>
#include <memory>

#include "common/parallel.h"

namespace secreta {

namespace {

// Parallel build pays off only when each shard amortizes its subtree merge.
constexpr size_t kMinRecordsPerShard = 1024;

}  // namespace

CountTree::CountTree() : m_(0) {
  nodes_.emplace_back(ArenaAllocator<int32_t>(&arena_));  // root
}

CountTree::CountTree(const std::vector<std::vector<int32_t>>& records, int m,
                     ThreadPool* pool)
    : CountTree() {
  m_ = m;
  size_t shards =
      pool == nullptr ? 1
                      : std::min(pool->num_threads() + 1,
                                 records.size() / kMinRecordsPerShard);
  if (shards < 2) {
    InsertRecords(records, 0, records.size());
    return;
  }
  // Each worker builds a private arena-backed subtree over its record slice;
  // the serial merge adds counts node-by-node. Children are kept sorted by
  // item everywhere, so the merged tree's shape does not depend on the shard
  // count — only internal node ids differ, which no query observes.
  std::vector<std::unique_ptr<CountTree>> subtrees;
  subtrees.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    subtrees.emplace_back(new CountTree());
    subtrees.back()->m_ = m;
  }
  size_t per_shard = (records.size() + shards - 1) / shards;
  ParallelFor(pool, shards, [&](size_t s) {
    size_t begin = s * per_shard;
    size_t end = std::min(records.size(), begin + per_shard);
    subtrees[s]->InsertRecords(records, begin, end);
  });
  for (const auto& subtree : subtrees) MergeFrom(*subtree);
}

void CountTree::InsertRecords(const std::vector<std::vector<int32_t>>& records,
                              size_t begin, size_t end) {
  for (size_t r = begin; r < end; ++r) Update(records[r], +1);
}

void CountTree::Update(const std::vector<int32_t>& record, int delta) {
  if (m_ < 1) return;
  if (delta > 0) {
    UpdateSubsets<true>(0, record, 0, m_, /*holds=*/true);
  } else {
    UpdateSubsets<false>(0, record, 0, m_, /*holds=*/true);
  }
}

void CountTree::Replace(const std::vector<int32_t>& before,
                        const std::vector<int32_t>& after) {
  if (m_ < 1) return;
  MarkTouched(before, after);
  UpdateSubsets<false>(0, before, 0, m_, /*holds=*/false);
  MarkTouched(after, before);
  UpdateSubsets<true>(0, after, 0, m_, /*holds=*/false);
}

void CountTree::MarkTouched(const std::vector<int32_t>& record,
                            const std::vector<int32_t>& other) {
  touched_.assign(record.size(), 0);
  touched_end_ = 0;
  size_t o = 0;
  for (size_t i = 0; i < record.size(); ++i) {
    while (o < other.size() && other[o] < record[i]) ++o;
    if (o == other.size() || other[o] != record[i]) {
      touched_[i] = 1;
      touched_end_ = i + 1;
    }
  }
}

template <bool kAdd>
void CountTree::UpdateSubsets(int32_t node, const std::vector<int32_t>& record,
                              size_t start, int sizes_left, bool holds) {
  // Combination enumeration that shares prefixes through the tree. An
  // itemset of untouched keys is walked through, not moved: it reaches a
  // touched key only through a position before touched_end_. Such an
  // itemset is one both records hold, so its node exists.
  const size_t end = holds ? record.size() : touched_end_;
  for (size_t i = start; i < end; ++i) {
    const bool child_holds = holds || touched_[i] != 0;
    int32_t child;
    if constexpr (kAdd) {
      child = GetOrAddChild(node, record[i]);
      if (child_holds) ++nodes_[static_cast<size_t>(child)].count;
    } else {
      child = FindChild(node, record[i]);
      if (child_holds) --nodes_[static_cast<size_t>(child)].count;
    }
    if (sizes_left > 1) {
      UpdateSubsets<kAdd>(child, record, i + 1, sizes_left - 1, child_holds);
    }
  }
}

void CountTree::MergeFrom(const CountTree& other) {
  struct Frame {
    int32_t theirs;
    int32_t mine;
  };
  std::vector<Frame> stack{{0, 0}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const Node& src = other.nodes_[static_cast<size_t>(frame.theirs)];
    for (int32_t their_child : src.children) {
      const Node& child = other.nodes_[static_cast<size_t>(their_child)];
      int32_t mine = GetOrAddChild(frame.mine, child.item);
      nodes_[static_cast<size_t>(mine)].count += child.count;
      stack.push_back({their_child, mine});
    }
  }
}

int32_t CountTree::FindChild(int32_t node, int32_t item) const {
  const auto& children = nodes_[static_cast<size_t>(node)].children;
  auto it = std::lower_bound(
      children.begin(), children.end(), item, [&](int32_t child, int32_t key) {
        return nodes_[static_cast<size_t>(child)].item < key;
      });
  if (it != children.end() && nodes_[static_cast<size_t>(*it)].item == item) {
    return *it;
  }
  return -1;
}

int32_t CountTree::GetOrAddChild(int32_t node, int32_t item) {
  auto& children = nodes_[static_cast<size_t>(node)].children;
  auto it = std::lower_bound(
      children.begin(), children.end(), item, [&](int32_t child, int32_t key) {
        return nodes_[static_cast<size_t>(child)].item < key;
      });
  if (it != children.end() && nodes_[static_cast<size_t>(*it)].item == item) {
    return *it;
  }
  int32_t id = static_cast<int32_t>(nodes_.size());
  ArenaAllocator<int32_t> alloc(&arena_);
  Node fresh(alloc);
  fresh.item = item;
  // Insert position index must be captured before nodes_ reallocates.
  size_t pos = static_cast<size_t>(it - children.begin());
  nodes_.push_back(std::move(fresh));
  auto& parent_children = nodes_[static_cast<size_t>(node)].children;
  parent_children.insert(parent_children.begin() + static_cast<ptrdiff_t>(pos),
                         id);
  return id;
}

size_t CountTree::Support(const std::vector<int32_t>& itemset) const {
  int32_t node = 0;
  for (int32_t item : itemset) {
    node = FindChild(node, item);
    if (node == -1) return 0;
  }
  return node == 0 ? 0 : nodes_[static_cast<size_t>(node)].count;
}

std::vector<KmViolation> CountTree::FindViolations(
    int k, size_t max_violations) const {
  std::vector<KmViolation> out;
  std::vector<int32_t> path;
  struct Frame {
    int32_t node;
    size_t next_child;
  };
  std::vector<Frame> stack{{0, 0}};
  while (!stack.empty() && out.size() < max_violations) {
    Frame& frame = stack.back();
    const Node& node = nodes_[static_cast<size_t>(frame.node)];
    if (frame.next_child == 0 && frame.node != 0 && node.count > 0 &&
        node.count < static_cast<size_t>(k)) {
      out.push_back({path, node.count});
      if (out.size() >= max_violations) break;
    }
    if (frame.next_child < node.children.size()) {
      int32_t child = node.children[frame.next_child++];
      // A count-0 node is an itemset every record lost; so is its subtree.
      if (nodes_[static_cast<size_t>(child)].count == 0) continue;
      path.push_back(nodes_[static_cast<size_t>(child)].item);
      stack.push_back({child, 0});
    } else {
      if (frame.node != 0) path.pop_back();
      stack.pop_back();
    }
  }
  // Prefer the most fragile violations (smallest support first).
  std::sort(out.begin(), out.end(),
            [](const KmViolation& a, const KmViolation& b) {
              return a.support < b.support;
            });
  return out;
}

}  // namespace secreta
