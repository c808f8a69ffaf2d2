// Query evaluation and Average Relative Error (ARE, Xu et al. [12]) — the
// paper's de-facto utility indicator. Exact counts run against the original
// dataset; estimated counts run against an anonymized recoding under the
// standard uniformity assumption.
//
// One path: Create builds the dataset's QueryIndex; BindWorkload binds a
// workload against it once (posting lists -> clause bitmaps, itemset
// intersections, per-(clause, node) leaf-overlap caches, precomputed exact
// counts); BuildRecodingCache derives what a recoding contributes; Are
// evaluates the bound queries in parallel batches. The O(records x clauses)
// scan oracle this path is checked against bit-for-bit lives in
// tests/oracle (the test-only secreta_oracles library) and binds queries
// with its own code.

#ifndef SECRETA_QUERY_QUERY_EVALUATOR_H_
#define SECRETA_QUERY_QUERY_EVALUATOR_H_

#include <vector>

#include "common/cancellation.h"
#include "common/csr.h"
#include "common/thread_pool.h"
#include "core/context.h"
#include "core/results.h"
#include "query/query.h"
#include "query/query_index.h"

namespace secreta {

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

  /// Exact count of query `i` over the original dataset.
  double exact_count(size_t i) const { return exact_[i]; }
  const std::vector<double>& exact_counts() const { return exact_; }

 private:
  friend class QueryEvaluator;

  /// Leaf-overlap probability cache of one hierarchy-bound clause: for every
  /// node of hierarchy(qi), the fraction of the node's leaves matching the
  /// clause, so a record's QI factor is one array read.
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
};

/// \brief Recoding-derived evaluation caches, reusable across Are calls.
///
/// Everything an estimate needs that depends only on the *recoding* (not on
/// the workload): relational equivalence classes, per-item coverage of the
/// generalized transactions, and the gen <-> record and item <-> gen lists
/// an item's shares are painted from. Built by
/// QueryEvaluator::BuildRecodingCache once per recoding: a report builds one
/// per run, and a long-lived server builds one per published release for
/// all its ad-hoc queries. Immutable after construction; thread-safe for
/// concurrent const use.
struct RecodingCache {
  /// Records of the dataset the cache was built over; Are refuses a cache
  /// of another record count.
  size_t num_records = 0;
  /// Equivalence classes of the relational recoding: records with the same
  /// recoded node tuple share one per-query QI probability product
  /// (computed once per class from `class_rep`, multiplying the clauses'
  /// factors in clause order as a per-record scan does). Empty when there
  /// is no relational recoding.
  std::vector<uint32_t> class_of;   // per record
  std::vector<uint32_t> class_rep;  // representative record per class
  /// Coverage of each item of the dataset's domain: bit r is set when
  /// record r's generalized transaction holds a gen standing for the item
  /// (its item_map gen in a global recoding, any gen covering it in a local
  /// one). A record lacking such a gen for some query item contributes
  /// exactly 0, so a query's candidates are the AND of its items'
  /// coverages, listed in ascending record order as a per-record scan sums.
  /// One RecordBitmap per item, num_items x num_records / 8 bytes (75 KB
  /// for 120 items over 5,000 records). The lists below are empty, like
  /// this, when there is no transaction recoding.
  std::vector<RecordBitmap> item_cover;
  /// Each gen's rows, ascending: gen g is held by the records
  /// gen_rows[g]. 4 bytes per record-gen pair.
  Csr gen_rows;
  /// Each item's gens, descending id: the gens standing for item i (the
  /// ones item_cover reads) are item_gens[i]. 4 bytes per gen-item pair.
  Csr item_gens;
  /// Each gen's share of an item it stands for: 1/|covers|.
  std::vector<double> gen_share;
};

/// \brief Evaluates COUNT queries exactly and on anonymized recodings.
///
/// Non-owning of the dataset and context, which must outlive the evaluator.
/// `rel_context` may be null when the dataset has no QI recoding to estimate
/// against. Immutable after Create: every method is const and safe from any
/// number of threads.
class QueryEvaluator {
 public:
  /// Builds the dataset's QueryIndex, which the evaluator holds.
  static Result<QueryEvaluator> Create(const Dataset& dataset,
                                       const RelationalContext* rel_context);

  /// Binds every query of `workload` once: materializes clause bitmaps,
  /// itemset intersections and leaf-overlap caches, and precomputes all
  /// exact counts. `pool` (optional) parallelizes the per-query binding.
  Result<BoundWorkload> BindWorkload(const Workload& workload,
                                     ThreadPool* pool = nullptr) const;

  /// Builds the recoding-derived caches (equivalence classes, per-item
  /// coverage, gen rows and item gens) once for reuse across many Are calls
  /// on the same recodings. InvalidArgument when a recoding's record count
  /// differs from the dataset's.
  Result<RecodingCache> BuildRecodingCache(
      const RelationalRecoding* relational,
      const TransactionRecoding* transaction) const;

  /// ARE over a bound workload: mean of |actual - estimated| / max(actual, 1).
  /// Estimates are expected counts over the anonymized data: relational
  /// clauses use the leaf-overlap fraction of each record's generalized
  /// node; item clauses use 1/|g| for a covering generalized item g present
  /// in the record. Pass nullptr for a side that was not anonymized (exact
  /// matching on that side). `cache` must have been built from the same
  /// recodings; a cache or recoding over another record count than the
  /// dataset's is InvalidArgument. Queries are evaluated in batches fanned
  /// out over `pool` (null = serial); `cancel` is polled per batch, so a
  /// long workload unwinds with Status::Cancelled mid-evaluation.
  Result<AreReport> Are(const BoundWorkload& bound,
                        const RelationalRecoding* relational,
                        const TransactionRecoding* transaction,
                        const RecodingCache& cache, ThreadPool* pool = nullptr,
                        const CancellationToken* cancel = nullptr) const;

 private:
  /// Resolves `query` against the dataset and index into its bound form,
  /// writing its exact count to `*out_exact`.
  Result<BoundWorkload::FastQuery> Bind(const CountQuery& query,
                                        double* out_exact) const;

  /// Record-indexed buffers of EstimateFast, reused across the queries of
  /// one Are batch: 20 bytes per record, whatever the number of query
  /// items.
  struct EstimateScratch {
    explicit EstimateScratch(size_t num_records)
        : candidates(num_records), products(num_records),
          painted(num_records) {}
    std::vector<uint32_t> candidates;  // ascending record ids
    std::vector<double> products;      // per candidate
    std::vector<double> painted;       // per record: the item's share
  };

  /// Estimated count of one bound query (see Are), in flat passes over its
  /// candidates (the records every clause mask and query item's coverage
  /// select): each candidate's product starts at its class's QI
  /// probability; then, per query item in sorted order, the item's share is
  /// painted into `painted` from its gens, largest id first (a record
  /// holding several covering gens keeps the smallest one's share, the scan
  /// oracle's rule), and every product is multiplied by its record's
  /// painted share; the products are summed in ascending record order.
  /// These are a per-record scan's double operations in its order, less
  /// its stop at a zero product (0 x share is still +0.0), so the estimate
  /// is bit-identical to it.
  double EstimateFast(const BoundWorkload::FastQuery& q,
                      const RelationalRecoding* relational,
                      const TransactionRecoding* transaction,
                      const RecodingCache& caches,
                      EstimateScratch* scratch) const;

  const Dataset* dataset_ = nullptr;
  const RelationalContext* rel_context_ = nullptr;
  std::vector<size_t> qi_of_column_;  // SIZE_MAX when not a QI column
  QueryIndex index_;
};

}  // namespace secreta

#endif  // SECRETA_QUERY_QUERY_EVALUATOR_H_
