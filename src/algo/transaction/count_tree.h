// Count-tree for itemset support counting (Terrovitis et al. [10], Sec. 5 of
// the VLDBJ paper): a prefix tree over sorted itemsets of item keys, storing
// the support of every itemset of size <= m that occurs in its records.
// Building the tree is one pass over the records. It can then follow changes
// to them: Update removes a record's itemsets or adds them, and Replace moves
// just the itemsets a changed record lost or gained. The AA loop builds one
// tree per itemset size and, after each raise, replaces just the records
// whose keys the raise changed.
//
// Children ascend by key, so a DFS visits itemsets in lexicographic order,
// and FindViolations reports, in that order, the itemsets with
// 0 < support < k. A removed itemset leaves its node at count 0, and every
// itemset below that node counts 0 too (no record holds an extension of an
// itemset it does not hold), so the DFS skips such a node with its subtree.
// The non-zero nodes of an updated tree are thus exactly the nodes of a tree
// built afresh over the same records, with the same counts and DFS order.
//
// Children vectors bump-allocate from a per-tree arena: tree build is
// millions of tiny sorted-insert allocations, and the arena turns each into
// a pointer bump freed wholesale with the tree. With a pool the build
// partitions the records into per-worker subtrees merged serially; children
// stay sorted by key, so the merged structure (and every DFS over it) is
// canonical — byte-identical violations regardless of worker count.

#ifndef SECRETA_ALGO_TRANSACTION_COUNT_TREE_H_
#define SECRETA_ALGO_TRANSACTION_COUNT_TREE_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "core/guarantees.h"
#include "kernels/arena.h"

namespace secreta {

/// \brief Prefix tree over sorted itemsets with per-node support counts.
class CountTree {
 public:
  /// Builds the tree of all itemsets of size <= m occurring in `records`
  /// (each record a sorted vector of distinct keys). `pool` (may be null)
  /// fans the build out across per-worker subtrees; the result is identical.
  CountTree(const std::vector<std::vector<int32_t>>& records, int m,
            ThreadPool* pool = nullptr);

  /// Counts `record` (sorted, distinct keys) once more when `delta` is +1,
  /// or once less when it is -1; a record removed must be one counted
  /// before. Every itemset of size <= m of the record moves by one.
  void Update(const std::vector<int32_t>& record, int delta);

  /// Recounts a counted record that changed from `before` to `after` (each
  /// sorted, distinct keys). Only the itemsets holding a key that one of
  /// the two lacks move: those of `before` lose one, those of `after` gain
  /// one. Itemsets over the keys both hold count the same either way and
  /// are left alone.
  void Replace(const std::vector<int32_t>& before,
               const std::vector<int32_t>& after);

  /// Support of `itemset` (must be sorted); 0 if absent.
  size_t Support(const std::vector<int32_t>& itemset) const;

  /// Itemsets with support in (0, k), up to `max_violations`, smallest
  /// support first among those found in DFS order.
  std::vector<KmViolation> FindViolations(int k, size_t max_violations) const;

  size_t num_nodes() const { return nodes_.size(); }

  /// Arena bytes backing the children vectors (observability/bench).
  size_t arena_bytes() const { return arena_.reserved_bytes(); }

 private:
  using ChildVec = std::vector<int32_t, ArenaAllocator<int32_t>>;

  struct Node {
    explicit Node(const ArenaAllocator<int32_t>& alloc) : children(alloc) {}

    int32_t item = -1;  // the key this node adds to its parent's itemset
    size_t count = 0;
    ChildVec children;  // node ids, sorted by item
  };

  // Shard subtree shell: root node only. The public constructor delegates
  // here, then inserts.
  CountTree();

  // Inserts all itemsets of records[begin, end).
  void InsertRecords(const std::vector<std::vector<int32_t>>& records,
                     size_t begin, size_t end);
  // Moves by one (up when kAdd) the count of every itemset that extends
  // `node`'s itemset by 1..`sizes_left` keys of `record` from `start` on
  // and holds a touched key. `holds` says `node`'s itemset holds one
  // already; otherwise touched_ flags the touched positions of `record`.
  template <bool kAdd>
  void UpdateSubsets(int32_t node, const std::vector<int32_t>& record,
                     size_t start, int sizes_left, bool holds);
  // Flags in touched_ the positions of `record` whose key `other` lacks.
  void MarkTouched(const std::vector<int32_t>& record,
                   const std::vector<int32_t>& other);
  // Adds `other`'s structure and counts into this tree.
  void MergeFrom(const CountTree& other);

  // Returns the child of `node` holding `item`, or -1.
  int32_t FindChild(int32_t node, int32_t item) const;
  // Returns the child of `node` holding `item`, creating it if needed.
  int32_t GetOrAddChild(int32_t node, int32_t item);

  Arena arena_;              // declared before nodes_: outlives the vectors
  std::vector<Node> nodes_;  // nodes_[0] is the root (item -1)
  int m_;
  // Replace's scratch: touched_[i] flags position i of the record being
  // walked, and touched_end_ is one past the last flagged position.
  std::vector<uint8_t> touched_;
  size_t touched_end_ = 0;
};

}  // namespace secreta

#endif  // SECRETA_ALGO_TRANSACTION_COUNT_TREE_H_
