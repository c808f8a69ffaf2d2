#include "query/query_evaluator.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/parallel.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace secreta {

namespace {

// Recodings and caches are indexed by the dataset's record ids, so each must
// cover exactly the dataset's `n` records.
Status CheckRecordCounts(size_t n, const RelationalRecoding* relational,
                         const TransactionRecoding* transaction) {
  if (relational != nullptr && relational->num_records() != n) {
    return Status::InvalidArgument(StrFormat(
        "relational recoding has %zu records, the dataset %zu",
        relational->num_records(), n));
  }
  if (transaction != nullptr && transaction->records.size() != n) {
    return Status::InvalidArgument(StrFormat(
        "transaction recoding has %zu records, the dataset %zu",
        transaction->records.size(), n));
  }
  return Status::OK();
}

}  // namespace

Result<QueryEvaluator> QueryEvaluator::Create(
    const Dataset& dataset, const RelationalContext* rel_context) {
  QueryEvaluator ev;
  ev.dataset_ = &dataset;
  ev.rel_context_ = rel_context;
  ev.qi_of_column_.assign(dataset.num_relational(), SIZE_MAX);
  if (rel_context != nullptr) {
    for (size_t qi = 0; qi < rel_context->num_qi(); ++qi) {
      ev.qi_of_column_[rel_context->qi_column(qi)] = qi;
    }
  }
  ev.index_ = QueryIndex::Build(dataset);
  return ev;
}

Result<BoundWorkload::FastQuery> QueryEvaluator::Bind(
    const CountQuery& query, double* out_exact) const {
  BoundWorkload::FastQuery fq;
  for (const QueryClause& clause : query.relational) {
    SECRETA_ASSIGN_OR_RETURN(size_t col,
                             dataset_->ColumnByName(clause.attribute));
    const Dictionary& dict = dataset_->dictionary(col);
    std::vector<char> match(dict.size(), 0);
    bool any = false;
    if (clause.is_range) {
      if (!dataset_->is_numeric(col)) {
        return Status::InvalidArgument(
            "range clause on non-numeric attribute: " + clause.attribute);
      }
      for (size_t id = 0; id < dict.size(); ++id) {
        double v = dataset_->numeric_value(col, static_cast<ValueId>(id)).raw();
        if (v >= clause.lo && v <= clause.hi) {
          match[id] = 1;
          any = true;
        }
      }
    } else {
      for (const std::string& value : clause.values) {
        auto id = dict.Lookup(value);
        if (id.ok()) {
          match[static_cast<size_t>(id.value())] = 1;
          any = true;
        }
      }
    }
    if (!any) fq.impossible = true;
    RecordBitmap bitmap = index_.ClauseBitmap(col, match);
    size_t qi = qi_of_column_[col];
    if (qi == SIZE_MAX) {
      if (fq.has_nonqi) {
        fq.nonqi_mask.AndWith(bitmap);
      } else {
        fq.nonqi_mask = std::move(bitmap);
        fq.has_nonqi = true;
      }
      continue;
    }
    if (fq.has_qi) {
      fq.qi_mask.AndWith(bitmap);
    } else {
      fq.qi_mask = std::move(bitmap);
      fq.has_qi = true;
    }
    // Leaf-overlap cache: matched-leaf counts aggregated bottom-up, then
    // divided by each node's leaf count, computed once per node.
    const Hierarchy& h = rel_context_->hierarchy(qi);
    std::vector<int32_t> counts(h.num_nodes(), 0);
    for (size_t id = 0; id < dict.size(); ++id) {
      if (!match[id]) continue;
      SECRETA_ASSIGN_OR_RETURN(NodeId leaf,
                               h.LeafOf(dict.value(static_cast<ValueId>(id))));
      counts[static_cast<size_t>(leaf)] += 1;
    }
    for (NodeId node : h.PostOrder()) {
      if (h.IsLeaf(node)) continue;
      int32_t sum = 0;
      for (NodeId child : h.children(node)) {
        sum += counts[static_cast<size_t>(child)];
      }
      counts[static_cast<size_t>(node)] = sum;
    }
    BoundWorkload::QiClauseCache cache;
    cache.qi = qi;
    cache.node_prob.resize(h.num_nodes());
    for (size_t node = 0; node < h.num_nodes(); ++node) {
      cache.node_prob[node] =
          static_cast<double>(counts[node]) /
          static_cast<double>(h.LeafCount(static_cast<NodeId>(node)));
    }
    fq.qi_clauses.push_back(std::move(cache));
  }
  for (const std::string& item : query.items) {
    auto id = dataset_->item_dictionary().Lookup(item);
    if (!id.ok()) {
      fq.impossible = true;
      continue;
    }
    fq.items.push_back(id.value());
  }
  std::sort(fq.items.begin(), fq.items.end());
  fq.items.erase(std::unique(fq.items.begin(), fq.items.end()), fq.items.end());
  if (!fq.items.empty()) fq.item_recs = index_.ItemIntersection(fq.items);
  // Exact count: AND of every clause bitmap, intersected with the itemset
  // containment list.
  if (fq.impossible) {
    *out_exact = 0.0;
    return fq;
  }
  size_t count = 0;
  auto passes_masks = [&fq](uint32_t r) {
    return (!fq.has_nonqi || fq.nonqi_mask.Test(r)) &&
           (!fq.has_qi || fq.qi_mask.Test(r));
  };
  if (!fq.items.empty()) {
    for (uint32_t r : fq.item_recs) {
      if (passes_masks(r)) ++count;
    }
  } else if (fq.has_nonqi && fq.has_qi) {
    count = RecordBitmap::AndCount(fq.nonqi_mask, fq.qi_mask);
  } else if (fq.has_nonqi) {
    count = fq.nonqi_mask.Count();
  } else if (fq.has_qi) {
    count = fq.qi_mask.Count();
  } else {
    count = index_.num_records();
  }
  *out_exact = static_cast<double>(count);
  return fq;
}

Result<BoundWorkload> QueryEvaluator::BindWorkload(const Workload& workload,
                                                   ThreadPool* pool) const {
  BoundWorkload bound;
  size_t n = workload.size();
  bound.queries_.resize(n);
  bound.exact_.assign(n, 0.0);
  std::vector<Status> statuses(n);
  const std::vector<CountQuery>& queries = workload.queries();
  ParallelFor(pool, n, [&](size_t i) {
    Result<BoundWorkload::FastQuery> fq = Bind(queries[i], &bound.exact_[i]);
    if (!fq.ok()) {
      statuses[i] = fq.status();
      return;
    }
    bound.queries_[i] = std::move(fq).value();
  });
  for (const Status& status : statuses) {
    SECRETA_RETURN_IF_ERROR(status);
  }
  return bound;
}

Result<RecodingCache> QueryEvaluator::BuildRecodingCache(
    const RelationalRecoding* relational,
    const TransactionRecoding* transaction) const {
  size_t n = dataset_->num_records();
  SECRETA_RETURN_IF_ERROR(CheckRecordCounts(n, relational, transaction));
  RecodingCache caches;
  caches.num_records = n;
  if (relational != nullptr) {
    // Partition records into equivalence classes (identical recoded node
    // tuples) by sorting record ids lexicographically on the tuples.
    size_t nq = relational->num_qi();
    std::vector<uint32_t> order(n);
    for (size_t r = 0; r < n; ++r) order[r] = static_cast<uint32_t>(r);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const NodeId* ra = relational->row(a);
      const NodeId* rb = relational->row(b);
      return std::lexicographical_compare(ra, ra + nq, rb, rb + nq);
    });
    caches.class_of.resize(n);
    for (size_t i = 0; i < n; ++i) {
      uint32_t r = order[i];
      if (i == 0 || !std::equal(relational->row(order[i - 1]),
                                relational->row(order[i - 1]) + nq,
                                relational->row(r))) {
        caches.class_rep.push_back(r);
      }
      caches.class_of[r] =
          static_cast<uint32_t>(caches.class_rep.size() - 1);
    }
  }
  if (transaction != nullptr) {
    size_t num_items = dataset_->item_dictionary().size();
    size_t num_gens = transaction->gens.size();
    caches.gen_rows = Csr::Build(num_gens, [&](auto emit) {
      for (size_t r = 0; r < n; ++r) {
        for (int32_t g : transaction->records[r]) {
          emit(static_cast<size_t>(g), static_cast<uint32_t>(r));
        }
      }
    });
    // The gens each item stands for, descending: its item_map gen in a
    // global recoding, every gen covering it in a local one.
    caches.item_gens = Csr::Build(num_items, [&](auto emit) {
      if (!transaction->item_map.empty()) {
        for (size_t item = 0; item < transaction->item_map.size(); ++item) {
          int32_t g = transaction->item_map[item];
          if (g != kSuppressedGen && item < num_items) {
            emit(item, static_cast<uint32_t>(g));
          }
        }
        return;
      }
      for (size_t g = num_gens; g-- > 0;) {
        for (ItemId item : transaction->gens[g].covers) {
          if (static_cast<size_t>(item) < num_items) {
            emit(static_cast<size_t>(item), static_cast<uint32_t>(g));
          }
        }
      }
    });
    caches.gen_share.assign(num_gens, 0.0);
    for (size_t g = 0; g < num_gens; ++g) {
      size_t covers = transaction->gens[g].covers.size();
      if (covers > 0) caches.gen_share[g] = 1.0 / static_cast<double>(covers);
    }
    caches.item_cover.assign(num_items, RecordBitmap(n));
    for (size_t item = 0; item < num_items; ++item) {
      for (uint32_t g : caches.item_gens[item]) {
        for (uint32_t r : caches.gen_rows[g]) caches.item_cover[item].Set(r);
      }
    }
  }
  return caches;
}

double QueryEvaluator::EstimateFast(const BoundWorkload::FastQuery& q,
                                    const RelationalRecoding* relational,
                                    const TransactionRecoding* transaction,
                                    const RecodingCache& caches,
                                    EstimateScratch* scratch) const {
  if (q.impossible) return 0.0;
  const bool qi_estimated = relational != nullptr;
  // Clauses evaluated by exact match: always the non-QI group, plus the QI
  // group when there is no relational recoding to estimate against.
  const RecordBitmap* masks[2];
  int num_masks = 0;
  if (q.has_nonqi) masks[num_masks++] = &q.nonqi_mask;
  if (!qi_estimated && q.has_qi) masks[num_masks++] = &q.qi_mask;

  // QI probability product per equivalence class: every record of a class
  // has the same node tuple, so the product (multiplied in clause order, as
  // a per-record scan would) is shared. Skipping a zero-probability record
  // or adding its 0.0 are bit-identical (x + 0.0 == x for x >= 0).
  const bool use_class = qi_estimated && !q.qi_clauses.empty();
  std::vector<double> class_qi;
  if (use_class) {
    class_qi.resize(caches.class_rep.size());
    for (size_t c = 0; c < caches.class_rep.size(); ++c) {
      double p = 1.0;
      size_t rep = caches.class_rep[c];
      for (const BoundWorkload::QiClauseCache& qc : q.qi_clauses) {
        p *= qc.node_prob[static_cast<size_t>(relational->at(rep, qc.qi))];
        if (p == 0.0) break;
      }
      class_qi[c] = p;
    }
  }
  auto qi_prob = [&](size_t r) -> double {
    return use_class ? class_qi[caches.class_of[r]] : 1.0;
  };
  auto passes_masks = [&](uint32_t r) {
    for (int m = 0; m < num_masks; ++m) {
      if (!masks[m]->Test(r)) return false;
    }
    return true;
  };

  double total = 0;
  if (!q.items.empty() && transaction == nullptr) {
    // Containment is exact: enumerate the (typically short) itemset
    // intersection and filter through the clause masks.
    for (uint32_t r : q.item_recs) {
      if (passes_masks(r)) total += qi_prob(r);
    }
  } else if (!q.items.empty() || num_masks > 0) {
    // Candidates: the records every clause mask selects and, against a
    // transaction recoding, every query item's coverage holds (a record
    // lacking a gen for some query item contributes a 0 factor), listed in
    // ascending order with their products started at the QI probability.
    std::vector<const std::vector<uint64_t>*> sets;
    for (int m = 0; m < num_masks; ++m) sets.push_back(&masks[m]->words());
    for (ItemId item : q.items) {
      sets.push_back(&caches.item_cover[static_cast<size_t>(item)].words());
    }
    uint32_t* candidates = scratch->candidates.data();
    double* products = scratch->products.data();
    size_t count = 0;
    for (size_t w = 0; w < sets[0]->size(); ++w) {
      uint64_t bits = (*sets[0])[w];
      for (size_t s = 1; s < sets.size() && bits != 0; ++s) {
        bits &= (*sets[s])[w];
      }
      while (bits != 0) {
        size_t r = (w << 6) + static_cast<unsigned>(__builtin_ctzll(bits));
        bits &= bits - 1;
        candidates[count] = static_cast<uint32_t>(r);
        products[count] = qi_prob(r);
        ++count;
      }
    }
    // Every candidate holds a gen for every query item, so each paint pass
    // rewrites every candidate's share and nothing needs clearing between
    // items. A product that reached 0 stays +0.0 (the shares are finite),
    // so no candidate needs a branch.
    double* painted = scratch->painted.data();
    for (ItemId item : q.items) {
      for (uint32_t g : caches.item_gens[static_cast<size_t>(item)]) {
        const double share = caches.gen_share[g];
        for (uint32_t r : caches.gen_rows[g]) painted[r] = share;
      }
      for (size_t c = 0; c < count; ++c) {
        products[c] *= painted[candidates[c]];
      }
    }
    for (size_t c = 0; c < count; ++c) total += products[c];
  } else {
    for (size_t r = 0; r < dataset_->num_records(); ++r) {
      total += qi_prob(r);
    }
  }
  return total;
}

Result<AreReport> QueryEvaluator::Are(const BoundWorkload& bound,
                                      const RelationalRecoding* relational,
                                      const TransactionRecoding* transaction,
                                      const RecodingCache& caches,
                                      ThreadPool* pool,
                                      const CancellationToken* cancel) const {
  if (bound.empty()) {
    return Status::InvalidArgument("workload is empty");
  }
  if (relational != nullptr && rel_context_ == nullptr) {
    return Status::FailedPrecondition(
        "estimation over a relational recoding requires a context");
  }
  if (caches.num_records != dataset_->num_records()) {
    return Status::InvalidArgument(StrFormat(
        "recoding cache was built over %zu records, the dataset has %zu",
        caches.num_records, dataset_->num_records()));
  }
  SECRETA_RETURN_IF_ERROR(
      CheckRecordCounts(dataset_->num_records(), relational, transaction));
  SECRETA_RETURN_IF_ERROR(CheckCancelled(cancel, "are workload"));
  size_t n = bound.size();
  AreReport report;
  report.actual = bound.exact_counts();
  report.estimated.assign(n, 0.0);
  // Queries fan out in batches; the token is polled per batch so a long
  // workload cancels mid-evaluation instead of running to completion.
  constexpr size_t kBatch = 16;
  size_t num_batches = (n + kBatch - 1) / kBatch;
  std::atomic<bool> cancelled{false};
  ParallelFor(pool, num_batches, [&](size_t b) {
    if (cancel != nullptr && cancel->cancelled()) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    SECRETA_TRACE_SPAN("are.batch");
    size_t begin = b * kBatch;
    size_t end = std::min(n, begin + kBatch);
    EstimateScratch scratch(dataset_->num_records());
    for (size_t i = begin; i < end; ++i) {
      report.estimated[i] = EstimateFast(bound.queries_[i], relational,
                                         transaction, caches, &scratch);
    }
  });
  if (cancelled.load(std::memory_order_relaxed)) {
    return Status::Cancelled("are workload: cancelled");
  }
  // Serial reduction in query order keeps the ARE bit-identical to a serial
  // evaluation regardless of batch scheduling.
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += std::fabs(report.actual[i] - report.estimated[i]) /
             std::max(report.actual[i], 1.0);
  }
  report.are = total / static_cast<double>(n);
  return report;
}

}  // namespace secreta
