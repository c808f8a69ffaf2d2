// Query evaluation and Average Relative Error (ARE, Xu et al. [12]) — the
// paper's de-facto utility indicator. Exact counts run against the original
// dataset; estimated counts run against an anonymized recoding under the
// standard uniformity assumption.
//
// Two execution paths exist and are kept value-identical (bit-for-bit):
//  - the scan path (ExactCount / EstimatedCount): straightforward
//    O(records x clauses) reference implementations, used for one-off
//    queries and as the oracle in equivalence tests;
//  - the indexed path (BindWorkload + Are): binds the whole workload once
//    against a per-dataset QueryIndex (posting lists -> clause bitmaps,
//    itemset intersections, per-(clause, node) leaf-overlap caches,
//    precomputed exact counts) and evaluates queries in parallel batches.

#ifndef SECRETA_QUERY_QUERY_EVALUATOR_H_
#define SECRETA_QUERY_QUERY_EVALUATOR_H_

#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "core/context.h"
#include "core/results.h"
#include "query/query.h"
#include "query/query_index.h"

namespace secreta {

class QueryEvaluator;

/// Per-workload ARE report.
struct AreReport {
  double are = 0;
  std::vector<double> actual;     // exact count per query
  std::vector<double> estimated;  // estimated count per query
};

/// \brief A workload bound once against a dataset's QueryIndex.
///
/// Holds, per query: the AND of its exact-match clause bitmaps (split into
/// QI and non-QI groups so either can be swapped for estimation), the sorted
/// record list containing all required items, the per-(clause, node) overlap
/// probability caches, and the precomputed exact count. Exact counts do not
/// depend on any recoding, so a BoundWorkload is shared read-only across
/// every run on the same (dataset, workload) pair — sweeps and comparison
/// grids bind once. Thread-safe for concurrent const use.
class BoundWorkload {
 public:
  size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }

  /// Exact count of query `i` (indexed equivalent of ExactCount).
  double exact_count(size_t i) const { return exact_[i]; }
  const std::vector<double>& exact_counts() const { return exact_; }

 private:
  friend class QueryEvaluator;

  /// Leaf-overlap probability cache of one hierarchy-bound clause: for every
  /// node of hierarchy(qi), the fraction of the node's leaves matching the
  /// clause. EstimatedCount's per-record lookup becomes one array read.
  struct QiClauseCache {
    size_t qi = 0;
    std::vector<double> node_prob;  // indexed by NodeId
  };

  struct FastQuery {
    bool impossible = false;
    bool has_nonqi = false;  // nonqi_mask is populated
    bool has_qi = false;     // qi_mask is populated
    RecordBitmap nonqi_mask;  // AND of non-hierarchy clause bitmaps
    RecordBitmap qi_mask;     // AND of hierarchy clause bitmaps
    std::vector<ItemId> items;       // sorted required items
    std::vector<uint32_t> item_recs; // records containing all items (sorted)
    std::vector<QiClauseCache> qi_clauses;  // in clause order
  };

  std::vector<FastQuery> queries_;
  std::vector<double> exact_;
  std::shared_ptr<const QueryIndex> index_;  // keeps postings alive
};

/// \brief Recoding-derived evaluation caches, reusable across Are calls.
///
/// Everything EstimateFast needs that depends only on the *recoding* (not on
/// the workload): relational equivalence classes and per-item coverage of
/// the generalized transactions. Are() builds one per call by default;
/// long-lived servers evaluating many ad-hoc queries against one published
/// recoding build it once with QueryEvaluator::BuildRecodingCache and pass
/// it in — the warm half of a per-dataset serving cache. Immutable after
/// construction; thread-safe for concurrent const use.
struct RecodingCache {
  /// Equivalence classes of the relational recoding: records with the same
  /// recoded node tuple share one per-query QI probability product
  /// (computed once per class from `class_rep`, with the exact multiply
  /// sequence of the scan oracle). Empty when there is no relational
  /// recoding.
  std::vector<uint32_t> class_of;   // per record
  std::vector<uint32_t> class_rep;  // representative record per class
  /// Coverage of each item of the dataset's domain: bit r is set when
  /// record r's generalized transaction holds a gen standing for the item
  /// (its item_map gen in a global recoding, any gen covering it in a local
  /// one). A record lacking such a gen for some query item contributes
  /// exactly 0, so a query's candidates are the AND of its items'
  /// coverages, walked in ascending record order as the scan oracle sums.
  /// One RecordBitmap per item, num_items x num_records / 8 bytes (75 KB
  /// for 120 items over 5,000 records), built once per recoding. Empty when
  /// there is no transaction recoding.
  std::vector<RecordBitmap> item_cover;
  std::vector<std::vector<int32_t>> gens_of_item;  // local recodings only
};

/// \brief Evaluates COUNT queries exactly and on anonymized recodings.
///
/// Non-owning: dataset and context must outlive the evaluator. `rel_context`
/// may be null when the dataset has no QI recoding to estimate against.
class QueryEvaluator {
 public:
  static Result<QueryEvaluator> Create(const Dataset& dataset,
                                       const RelationalContext* rel_context);

  /// Exact count of records in the original dataset matching `query`.
  /// Reference scan implementation (the oracle for BoundWorkload's
  /// precomputed counts).
  Result<double> ExactCount(const CountQuery& query) const;

  /// Expected count over the anonymized data: relational clauses use the
  /// leaf-overlap fraction of each record's generalized node; item clauses use
  /// 1/|g| for a covering generalized item g present in the record. Pass
  /// nullptr for a side that was not anonymized (falls back to exact
  /// matching on that side). Reference scan implementation (the oracle for
  /// the indexed Are path).
  Result<double> EstimatedCount(const CountQuery& query,
                                const RelationalRecoding* relational,
                                const TransactionRecoding* transaction) const;

  /// Builds the dataset's QueryIndex now (idempotent). Call once before
  /// handing the evaluator to concurrent readers: after it returns, the
  /// const BindWorkload overload below is safe from any number of threads
  /// with no further writes to the evaluator.
  Status EnsureIndex();

  /// Binds every query of `workload` once: builds (or reuses) the dataset's
  /// QueryIndex, materializes clause bitmaps, itemset intersections and
  /// leaf-overlap caches, and precomputes all exact counts. `pool` (optional)
  /// parallelizes the per-query binding.
  Result<BoundWorkload> BindWorkload(const Workload& workload,
                                     ThreadPool* pool = nullptr);

  /// Const binding path for shared evaluators (online serving): identical to
  /// the overload above but never mutates the evaluator, so concurrent calls
  /// are race-free. Requires EnsureIndex() (or a prior non-const
  /// BindWorkload) to have built the index; FailedPrecondition otherwise.
  Result<BoundWorkload> BindWorkload(const Workload& workload,
                                     ThreadPool* pool = nullptr) const;

  /// ARE over a bound workload: mean of |actual - estimated| / max(actual, 1).
  /// Queries are evaluated in batches fanned out over `pool` (null = serial);
  /// `cancel` is polled per batch, so a long workload unwinds with
  /// Status::Cancelled mid-evaluation. Value-identical to the scan path.
  Result<AreReport> Are(const BoundWorkload& bound,
                        const RelationalRecoding* relational,
                        const TransactionRecoding* transaction,
                        ThreadPool* pool = nullptr,
                        const CancellationToken* cancel = nullptr) const;

  /// Same, against a prebuilt RecodingCache (see BuildRecodingCache): skips
  /// the per-call O(records) cache construction, which dominates small
  /// workloads — the online serving path evaluates single ad-hoc queries
  /// this way. `cache` must have been built from the same recodings.
  Result<AreReport> Are(const BoundWorkload& bound,
                        const RelationalRecoding* relational,
                        const TransactionRecoding* transaction,
                        const RecodingCache& cache, ThreadPool* pool = nullptr,
                        const CancellationToken* cancel = nullptr) const;

  /// Builds the recoding-derived caches (equivalence classes, per-item
  /// coverage) once for reuse across many Are calls on the same recodings.
  RecodingCache BuildRecodingCache(const RelationalRecoding* relational,
                                   const TransactionRecoding* transaction) const;

  /// Convenience: BindWorkload + indexed Are (serial). Binds on every call —
  /// hoist a BoundWorkload when evaluating several recodings.
  Result<AreReport> Are(const Workload& workload,
                        const RelationalRecoding* relational,
                        const TransactionRecoding* transaction);

 private:
  struct BoundClause {
    size_t col = 0;            // relational column index
    bool is_qi = false;        // participates in the QI recoding
    size_t qi = 0;             // QI position when is_qi
    std::vector<char> match;   // per ValueId: does the clause match?
    std::vector<int32_t> leaf_positions;  // sorted DFS positions (is_qi only)
    std::vector<NodeId> matched_leaves;   // hierarchy leaves (is_qi only)
  };
  struct BoundQuery {
    std::vector<BoundClause> clauses;
    std::vector<ItemId> items;  // sorted
    bool impossible = false;    // referenced a value/item absent from the data
  };

  Result<BoundQuery> Bind(const CountQuery& query) const;

  /// Converts a bound query into its indexed form (bitmaps, caches, exact
  /// count) against `index`.
  BoundWorkload::FastQuery BuildFastQuery(const BoundQuery& bound,
                                          const QueryIndex& index,
                                          double* out_exact) const;

  /// Indexed estimated count of one bound query (see EstimatedCount).
  double EstimateFast(const BoundWorkload::FastQuery& q,
                      const RelationalRecoding* relational,
                      const TransactionRecoding* transaction,
                      const RecodingCache& caches) const;

  /// Shared implementation of both BindWorkload overloads; `index` is the
  /// already-built query index.
  Result<BoundWorkload> BindAgainst(const Workload& workload,
                                    std::shared_ptr<const QueryIndex> index,
                                    ThreadPool* pool) const;

  const Dataset* dataset_ = nullptr;
  const RelationalContext* rel_context_ = nullptr;
  std::vector<size_t> qi_of_column_;  // SIZE_MAX when not a QI column
  std::shared_ptr<const QueryIndex> index_;  // built on first BindWorkload
};

/// Reverse map of a transaction recoding: for every original item, the sorted
/// gen indices whose `covers` contain it. Built once per recoding so local
/// (no item_map) recodings avoid scanning every gen's covers per record.
std::vector<std::vector<int32_t>> BuildItemToGensMap(
    const TransactionRecoding& recoding, size_t num_items);

}  // namespace secreta

#endif  // SECRETA_QUERY_QUERY_EVALUATOR_H_
