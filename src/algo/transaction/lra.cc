#include "algo/transaction/lra.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "algo/transaction/apriori.h"
#include "algo/transaction/cut.h"
#include "obs/trace.h"

namespace secreta {

uint64_t GrayRank(uint64_t gray) {
  // Inverse of g = b ^ (b >> 1): prefix-XOR over all shifts.
  uint64_t binary = gray;
  for (int shift = 1; shift < 64; shift <<= 1) binary ^= binary >> shift;
  return binary;
}

Result<TransactionRecoding> LraAnonymizer::AnonymizeSubset(
    const TransactionContext& context, const std::vector<size_t>& subset,
    const AnonParams& params) {
  SECRETA_TRACE_SPAN("algo.Lra");
  SECRETA_RETURN_IF_ERROR(params.Validate());
  if (!context.has_hierarchy()) {
    return Status::FailedPrecondition("LRA requires an item hierarchy");
  }
  const Dataset& data = context.dataset();
  // Gray-order partitioning of [10]: sort transactions by the Gray rank of
  // their bitmap over the 64 most frequent items (most frequent item = most
  // significant bit), breaking ties by the full item set. Consecutive
  // transactions then differ in few frequent items, so partitions are
  // internally homogeneous and per-partition AA generalizes less.
  std::vector<size_t> support(context.num_items(), 0);
  for (size_t row : subset) {
    for (ItemId item : data.items(row).raw()) {
      support[static_cast<size_t>(item)]++;
    }
  }
  std::vector<size_t> freq_order(context.num_items());
  std::iota(freq_order.begin(), freq_order.end(), 0);
  std::sort(freq_order.begin(), freq_order.end(), [&](size_t a, size_t b) {
    if (support[a] != support[b]) return support[a] > support[b];
    return a < b;
  });
  std::vector<int> bit_of_item(context.num_items(), -1);
  for (size_t rank = 0; rank < freq_order.size() && rank < 64; ++rank) {
    bit_of_item[freq_order[rank]] = 63 - static_cast<int>(rank);
  }
  auto gray_key = [&](size_t row) {
    uint64_t bits = 0;
    for (ItemId item : data.items(row).raw()) {
      int bit = bit_of_item[static_cast<size_t>(item)];
      if (bit >= 0) bits |= uint64_t{1} << bit;
    }
    return GrayRank(bits);
  };
  std::vector<size_t> order(subset.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint64_t> keys(subset.size());
  for (size_t j = 0; j < subset.size(); ++j) keys[j] = gray_key(subset[j]);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return data.items(subset[a]).raw() < data.items(subset[b]).raw();
  });
  // Partition count: requested, but each partition needs >= 2k records to
  // have room to be k^m-anonymized without degenerating to suppression.
  size_t max_parts =
      std::max<size_t>(1, subset.size() / (2 * static_cast<size_t>(params.k)));
  size_t parts = std::min<size_t>(static_cast<size_t>(params.lra_partitions),
                                  max_parts);
  parts = std::max<size_t>(1, parts);
  size_t chunk = (order.size() + parts - 1) / parts;

  TransactionRecoding out;
  out.records.resize(subset.size());
  // Generalized items from different partitions that denote the same
  // hierarchy node are shared; distinct nodes stay distinct, which preserves
  // the per-partition k^m guarantee globally (see header).
  std::unordered_map<NodeId, int32_t> gen_of_node;
  for (size_t begin = 0; begin < order.size(); begin += chunk) {
    size_t end = std::min(begin + chunk, order.size());
    std::vector<size_t> part_rows;
    part_rows.reserve(end - begin);
    for (size_t j = begin; j < end; ++j) part_rows.push_back(subset[order[j]]);
    HierarchyCut cut(context);
    SECRETA_RETURN_IF_ERROR(
        RunAprioriLoop(&cut, part_rows, params.k, params.m, cancel_));
    CutRecoding part = cut.Materialize(part_rows);
    out.suppressed_occurrences += part.recoding.suppressed_occurrences;
    // Remap part gens into the shared pool and place records at their
    // original subset positions.
    std::vector<int32_t> remap(part.recoding.gens.size());
    for (size_t g = 0; g < part.recoding.gens.size(); ++g) {
      NodeId node = part.gen_nodes[g];
      auto [it, inserted] =
          gen_of_node.emplace(node, static_cast<int32_t>(out.gens.size()));
      if (inserted) out.gens.push_back(part.recoding.gens[g]);
      remap[g] = it->second;
    }
    for (size_t l = 0; l < part.recoding.records.size(); ++l) {
      std::vector<int32_t> rec;
      rec.reserve(part.recoding.records[l].size());
      for (int32_t g : part.recoding.records[l]) {
        rec.push_back(remap[static_cast<size_t>(g)]);
      }
      std::sort(rec.begin(), rec.end());
      out.records[order[begin + l]] = std::move(rec);
    }
  }
  // Local recoding: no single global item map exists.
  out.item_map.clear();
  return out;
}

}  // namespace secreta
