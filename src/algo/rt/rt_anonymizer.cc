#include "algo/rt/rt_anonymizer.h"

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/string_util.h"
#include "core/equivalence.h"
#include "kernels/kernels.h"
#include "metrics/information_loss.h"
#include "obs/trace.h"

namespace secreta {

const char* MergerKindToString(MergerKind kind) {
  switch (kind) {
    case MergerKind::kRmerger:
      return "Rmerger";
    case MergerKind::kTmerger:
      return "Tmerger";
    case MergerKind::kRTmerger:
      return "RTmerger";
  }
  return "?";
}

std::string RtAnonymizer::name() const {
  return relational_->name() + "+" + transaction_->name() + "/" +
         MergerKindToString(merger_);
}

namespace {

// A live cluster during the merging phase.
struct Cluster {
  std::vector<size_t> rows;
  std::vector<NodeId> nodes;        // per-QI generalized value
  std::vector<uint64_t> item_bits;  // one bit per distinct item of `rows`
  size_t num_items = 0;             // popcount of item_bits
  TransactionRecoding txn;          // aligned with `rows`
  double ul = 0;                    // transaction utility loss of `txn`
  bool alive = true;
};

// Jaccard distance of the clusters' item sets. The intersection and union
// counts are the integers a merge of sorted item lists counts, so the
// distance is the same double.
double JaccardDistance(const Cluster& a, const Cluster& b) {
  if (a.num_items == 0 && b.num_items == 0) return 0.0;
  size_t common = kernels::AndPopcount(a.item_bits.data(), b.item_bits.data(),
                                       a.item_bits.size());
  size_t uni = a.num_items + b.num_items - common;
  return 1.0 - static_cast<double>(common) / static_cast<double>(uni);
}

// `node_ncp[qi]` is NodeNcpTable of QI qi's hierarchy.
double RelationalDistance(const RelationalContext& context,
                          const std::vector<std::vector<double>>& node_ncp,
                          const Cluster& a, const Cluster& b) {
  double total = 0;
  for (size_t qi = 0; qi < context.num_qi(); ++qi) {
    NodeId lca = context.hierarchy(qi).Lca(a.nodes[qi], b.nodes[qi]);
    total += node_ncp[qi][static_cast<size_t>(lca)];
  }
  return total / static_cast<double>(context.num_qi());
}

}  // namespace

Result<RtResult> RtAnonymizer::Anonymize(
    const RelationalContext& rel_context, const TransactionContext& txn_context,
    const AnonParams& params, const CancellationToken* cancel) const {
  SECRETA_RETURN_IF_ERROR(params.Validate());
  const Dataset& data = rel_context.dataset();
  if (&data != &txn_context.dataset()) {
    return Status::InvalidArgument(
        "relational and transaction contexts must wrap the same dataset");
  }
  RtResult result;
  SECRETA_TRACE_SPAN("anonymize.rt");
  // One span per phase, rotated alongside the PhaseTimer (emplace closes the
  // previous span before opening the next).
  std::optional<ScopedSpan> phase_span;
  // Phase 1: relational clustering.
  SECRETA_RETURN_IF_ERROR(CheckCancelled(cancel, "rt relational phase"));
  result.phases.Begin("relational");
  phase_span.emplace(std::string_view("rt.relational"));
  SECRETA_ASSIGN_OR_RETURN(result.relational,
                           relational_->Anonymize(rel_context, params));
  EquivalenceClasses classes = GroupByRecoding(result.relational);
  result.initial_clusters = classes.num_groups();

  // Phase 2: per-cluster transaction anonymization.
  result.phases.Begin("transaction");
  phase_span.emplace(std::string_view("rt.transaction"));
  std::vector<Cluster> clusters(classes.num_groups());
  size_t num_items = data.item_dictionary().size();
  size_t item_words = (num_items + 63) / 64;
  auto anonymize_cluster = [&](Cluster* cluster) -> Status {
    SECRETA_ASSIGN_OR_RETURN(
        cluster->txn,
        transaction_->AnonymizeSubset(txn_context, cluster->rows, params));
    std::vector<std::vector<ItemId>> original;
    original.reserve(cluster->rows.size());
    for (size_t row : cluster->rows) original.push_back(data.items(row).raw());
    cluster->ul = TransactionUl(cluster->txn, original, num_items);
    return Status::OK();
  };
  for (size_t c = 0; c < classes.num_groups(); ++c) {
    SECRETA_RETURN_IF_ERROR(CheckCancelled(cancel, "rt transaction phase"));
    Cluster& cluster = clusters[c];
    std::span<const uint32_t> members = classes.groups[c];
    cluster.rows.assign(members.begin(), members.end());
    cluster.nodes.resize(rel_context.num_qi());
    for (size_t qi = 0; qi < rel_context.num_qi(); ++qi) {
      cluster.nodes[qi] = result.relational.at(cluster.rows[0], qi);
    }
    cluster.item_bits.assign(item_words, 0);
    for (size_t row : cluster.rows) {
      for (ItemId item : data.items(row).raw()) {
        cluster.item_bits[static_cast<size_t>(item) >> 6] |=
            uint64_t{1} << (static_cast<unsigned>(item) & 63);
      }
    }
    cluster.num_items =
        kernels::PopcountRange(cluster.item_bits.data(), item_words);
    SECRETA_RETURN_IF_ERROR(anonymize_cluster(&cluster));
  }

  // Phase 3: bounded merging. While some cluster's transaction loss exceeds
  // delta, merge it into the neighbour chosen by the bounding method.
  result.phases.Begin("merging");
  phase_span.emplace(std::string_view("rt.merging"));
  std::vector<std::vector<double>> node_ncp;
  for (size_t qi = 0; qi < rel_context.num_qi(); ++qi) {
    node_ncp.push_back(NodeNcpTable(rel_context.hierarchy(qi)));
  }
  size_t alive = clusters.size();
  while (alive > 1) {
    SECRETA_RETURN_IF_ERROR(CheckCancelled(cancel, "rt merging phase"));
    // Worst offender first.
    size_t worst = SIZE_MAX;
    for (size_t c = 0; c < clusters.size(); ++c) {
      if (!clusters[c].alive || clusters[c].ul <= params.delta) continue;
      if (worst == SIZE_MAX || clusters[c].ul > clusters[worst].ul) worst = c;
    }
    if (worst == SIZE_MAX) break;
    // Partner by merger-specific distance.
    size_t partner = SIZE_MAX;
    double best_dist = 0;
    for (size_t c = 0; c < clusters.size(); ++c) {
      if (c == worst || !clusters[c].alive) continue;
      double dist = 0;
      switch (merger_) {
        case MergerKind::kRmerger:
          dist = RelationalDistance(rel_context, node_ncp, clusters[worst],
                                    clusters[c]);
          break;
        case MergerKind::kTmerger:
          dist = JaccardDistance(clusters[worst], clusters[c]);
          break;
        case MergerKind::kRTmerger:
          dist = RelationalDistance(rel_context, node_ncp, clusters[worst],
                                    clusters[c]) +
                 JaccardDistance(clusters[worst], clusters[c]);
          break;
      }
      if (partner == SIZE_MAX || dist < best_dist) {
        partner = c;
        best_dist = dist;
      }
    }
    Cluster& dst = clusters[worst];
    Cluster& src = clusters[partner];
    dst.rows.insert(dst.rows.end(), src.rows.begin(), src.rows.end());
    std::sort(dst.rows.begin(), dst.rows.end());
    for (size_t qi = 0; qi < rel_context.num_qi(); ++qi) {
      const Hierarchy& h = rel_context.hierarchy(qi);
      dst.nodes[qi] = h.Lca(dst.nodes[qi], src.nodes[qi]);
    }
    for (size_t w = 0; w < item_words; ++w) {
      dst.item_bits[w] |= src.item_bits[w];
    }
    dst.num_items = kernels::PopcountRange(dst.item_bits.data(), item_words);
    SECRETA_RETURN_IF_ERROR(anonymize_cluster(&dst));
    src.alive = false;
    src.rows.clear();
    src.txn = TransactionRecoding();
    --alive;
    ++result.merges;
  }
  result.phases.End();
  phase_span.reset();
  result.final_clusters = alive;

  // Assemble the global outputs.
  for (const Cluster& cluster : clusters) {
    if (!cluster.alive) continue;
    for (size_t row : cluster.rows) {
      for (size_t qi = 0; qi < rel_context.num_qi(); ++qi) {
        result.relational.set(row, qi, cluster.nodes[qi]);
      }
    }
  }
  // Combine per-cluster transaction recodings, sharing gens that cover the
  // same item set (keeps the per-cluster k^m guarantee valid globally).
  std::unordered_map<std::vector<ItemId>, int32_t, IntVectorHash> gen_index;
  result.transaction.records.resize(data.num_records());
  for (const Cluster& cluster : clusters) {
    if (!cluster.alive) continue;
    std::vector<int32_t> remap(cluster.txn.gens.size());
    for (size_t g = 0; g < cluster.txn.gens.size(); ++g) {
      auto [it, inserted] = gen_index.try_emplace(
          cluster.txn.gens[g].covers,
          static_cast<int32_t>(result.transaction.gens.size()));
      if (inserted) result.transaction.gens.push_back(cluster.txn.gens[g]);
      remap[g] = it->second;
    }
    result.transaction.suppressed_occurrences +=
        cluster.txn.suppressed_occurrences;
    for (size_t j = 0; j < cluster.rows.size(); ++j) {
      std::vector<int32_t> rec;
      rec.reserve(cluster.txn.records[j].size());
      for (int32_t g : cluster.txn.records[j]) {
        rec.push_back(remap[static_cast<size_t>(g)]);
      }
      std::sort(rec.begin(), rec.end());
      rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
      result.transaction.records[cluster.rows[j]] = std::move(rec);
    }
  }
  result.transaction.item_map.clear();
  return result;
}

}  // namespace secreta
