// Randomized stress tests: incremental data structures are checked against
// from-scratch recomputation over random operation sequences, and random
// inputs exercise invariants that hand-written cases may miss. All seeds are
// fixed — failures reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "algo/transaction/gen_space.h"
#include "common/random.h"
#include "common/string_util.h"
#include "hierarchy/hierarchy_builder.h"
#include "query/query_evaluator.h"
#include "query/workload_generator.h"
#include "secreta.h"  // umbrella header must compile standalone
#include "tests/test_util.h"

namespace secreta {
namespace {

// --- GenSpace: incremental state vs naive recomputation ---------------------

struct NaiveGenState {
  // item -> gen id (or suppressed); covers per gen.
  std::vector<int32_t> item_gen;
  std::map<int32_t, std::vector<ItemId>> covers;

  std::vector<std::vector<int32_t>> Records(
      const std::vector<std::vector<ItemId>>& original) const {
    std::vector<std::vector<int32_t>> out;
    for (const auto& txn : original) {
      std::vector<int32_t> rec;
      for (ItemId item : txn) {
        int32_t g = item_gen[static_cast<size_t>(item)];
        if (g != kSuppressedGen) rec.push_back(g);
      }
      std::sort(rec.begin(), rec.end());
      rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
      out.push_back(std::move(rec));
    }
    return out;
  }
};

TEST(GenSpaceStressTest, RandomOpsMatchNaiveRecomputation) {
  Rng rng(20140620);
  for (int trial = 0; trial < 8; ++trial) {
    size_t num_items = 12 + static_cast<size_t>(rng.UniformInt(0, 8));
    size_t n = 30 + static_cast<size_t>(rng.UniformInt(0, 40));
    Dictionary dict;
    for (size_t i = 0; i < num_items; ++i) {
      dict.GetOrAdd("it" + std::to_string(i));
    }
    std::vector<std::vector<ItemId>> txns(n);
    for (auto& txn : txns) {
      size_t len = static_cast<size_t>(rng.UniformInt(0, 6));
      for (size_t idx : rng.Sample(num_items, len)) {
        txn.push_back(static_cast<ItemId>(idx));
      }
      std::sort(txn.begin(), txn.end());
    }
    GenSpace space(txns, dict);
    NaiveGenState naive;
    naive.item_gen.resize(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      naive.item_gen[i] = static_cast<int32_t>(i);
      naive.covers[static_cast<int32_t>(i)] = {static_cast<ItemId>(i)};
    }
    // Random merge/suppress sequence.
    for (int op = 0; op < 25; ++op) {
      auto live = space.LiveGens();
      if (live.size() < 2) break;
      if (rng.Bernoulli(0.75)) {
        auto pick = rng.Sample(live.size(), 2);
        int32_t a = live[pick[0]];
        int32_t b = live[pick[1]];
        int32_t merged = space.Merge(a, b);
        // Mirror in naive state.
        std::vector<ItemId> merged_covers;
        std::merge(naive.covers[a].begin(), naive.covers[a].end(),
                   naive.covers[b].begin(), naive.covers[b].end(),
                   std::back_inserter(merged_covers));
        for (ItemId item : merged_covers) {
          naive.item_gen[static_cast<size_t>(item)] = merged;
        }
        naive.covers.erase(a);
        naive.covers.erase(b);
        naive.covers[merged] = merged_covers;
      } else {
        size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size() - 1)));
        int32_t victim = live[pick];
        space.Suppress(victim);
        for (ItemId item : naive.covers[victim]) {
          naive.item_gen[static_cast<size_t>(item)] = kSuppressedGen;
        }
        naive.covers.erase(victim);
      }
      // Full-state comparison.
      ASSERT_EQ(space.records(), naive.Records(txns))
          << "trial " << trial << " op " << op;
      // The live list is kept by Merge and Suppress, not recomputed: it
      // must hold exactly the gens with covers, ascending.
      std::vector<int32_t> live_gens;
      for (const auto& [gen, covers] : naive.covers) {
        ASSERT_FALSE(covers.empty());
        live_gens.push_back(gen);
      }
      ASSERT_EQ(space.LiveGens(), live_gens)
          << "trial " << trial << " op " << op;
      for (size_t i = 0; i < num_items; ++i) {
        ASSERT_EQ(space.GenOf(static_cast<ItemId>(i)), naive.item_gen[i]);
      }
      const auto naive_records = naive.Records(txns);
      for (const auto& [gen, covers] : naive.covers) {
        ASSERT_EQ(space.Covers(gen), covers);
        // Support = rows whose generalized form contains the gen, and the
        // gen's row list is exactly those rows, ascending: Merge and
        // Suppress rewrite the rows it lists, so a stale list would corrupt
        // the records themselves.
        std::vector<uint32_t> rows;
        for (size_t r = 0; r < naive_records.size(); ++r) {
          const auto& rec = naive_records[r];
          if (std::binary_search(rec.begin(), rec.end(), gen)) {
            rows.push_back(static_cast<uint32_t>(r));
          }
        }
        ASSERT_EQ(space.Support(gen), rows.size());
        ASSERT_EQ(space.GenRows(gen), rows)
            << "trial " << trial << " op " << op << " gen " << gen;
      }
    }
  }
}

// --- Hierarchy: random trees keep every invariant ----------------------------

// Reference LCA: the first node on `b`'s path to the root that is also on
// `a`'s.
NodeId NaiveLca(const Hierarchy& h, NodeId a, NodeId b) {
  std::set<NodeId> ancestors;
  for (NodeId x = a; x != kNoNode; x = h.parent(x)) ancestors.insert(x);
  NodeId naive = b;
  while (ancestors.find(naive) == ancestors.end()) naive = h.parent(naive);
  return naive;
}

// Lca of every node pair (interior nodes and a == b included) and LcaOfSet
// of random node sets against NaiveLca.
void ExpectLcaMatchesNaive(const Hierarchy& h, Rng& rng) {
  NodeId n = static_cast<NodeId>(h.num_nodes());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      NodeId lca = h.Lca(a, b);
      ASSERT_EQ(lca, NaiveLca(h, a, b)) << "nodes " << a << ", " << b;
      ASSERT_TRUE(h.IsAncestorOrSelf(lca, a));
      ASSERT_TRUE(h.IsAncestorOrSelf(lca, b));
    }
  }
  for (int probe = 0; probe < 40; ++probe) {
    size_t size = 1 + static_cast<size_t>(rng.UniformInt(0, 5));
    std::vector<NodeId> nodes;
    for (size_t i = 0; i < size; ++i) {
      nodes.push_back(static_cast<NodeId>(rng.UniformInt(0, n - 1)));
    }
    NodeId naive = nodes[0];
    for (NodeId node : nodes) naive = NaiveLca(h, naive, node);
    ASSERT_OK_AND_ASSIGN(NodeId lca, h.LcaOfSet(nodes));
    ASSERT_EQ(lca, naive) << "probe " << probe;
  }
  EXPECT_FALSE(h.LcaOfSet({}).ok());
}

TEST(HierarchyStressTest, RandomBalancedTreesValidateAndAnswerLca) {
  Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    size_t domain = 2 + static_cast<size_t>(rng.UniformInt(0, 60));
    size_t fanout = 2 + static_cast<size_t>(rng.UniformInt(0, 5));
    std::vector<std::string> values;
    for (size_t i = 0; i < domain; ++i) {
      values.push_back("v" + std::to_string(i));
    }
    HierarchyBuildOptions options;
    options.fanout = fanout;
    ASSERT_OK_AND_ASSIGN(Hierarchy h,
                         BuildBalancedHierarchy(values, "x", options));
    ASSERT_OK(h.Validate());
    ASSERT_EQ(h.num_leaves(), domain);
    ExpectLcaMatchesNaive(h, rng);
    // LeavesUnder matches leaf intervals.
    for (NodeId node = 0; node < static_cast<NodeId>(h.num_nodes()); ++node) {
      EXPECT_EQ(h.LeavesUnder(node).size(), h.LeafCount(node));
    }
  }
}

TEST(HierarchyStressTest, RandomUnbalancedTreesWithChainsAnswerLca) {
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    // Random tree over labels n0 (the root) .. n{size-1}: each node hangs
    // under the node made just before it (growing a single-child chain) or
    // under a random earlier node.
    size_t size = 1 + static_cast<size_t>(rng.UniformInt(0, 80));
    double chain = rng.UniformDouble(0.0, 0.9);
    std::vector<size_t> parent(size, 0);
    std::vector<bool> has_child(size, false);
    for (size_t i = 1; i < size; ++i) {
      parent[i] = rng.Bernoulli(chain)
                      ? i - 1
                      : static_cast<size_t>(
                            rng.UniformInt(0, static_cast<int64_t>(i - 1)));
      has_child[parent[i]] = true;
    }
    std::vector<std::vector<std::string>> paths;
    for (size_t leaf = 0; leaf < size; ++leaf) {
      if (has_child[leaf]) continue;
      std::vector<std::string> path;
      for (size_t x = leaf; x != 0; x = parent[x]) {
        path.push_back("n" + std::to_string(x));
      }
      path.push_back("n0");
      paths.push_back(std::move(path));
    }
    ASSERT_OK_AND_ASSIGN(Hierarchy h, Hierarchy::FromPaths(paths));
    ASSERT_OK(h.Validate());
    ASSERT_EQ(h.num_nodes(), size) << "trial " << trial;
    ExpectLcaMatchesNaive(h, rng);
  }
}

// --- Query evaluator: identity recodings are exact ---------------------------

TEST(QueryStressTest, IdentityRecodingsGiveZeroAreOnRandomWorkloads) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Dataset ds = testing::SmallRtDataset(120, 900 + seed);
    ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
    ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                         RelationalContext::Create(ds, hierarchies));
    RelationalRecoding rel_identity = IdentityRecoding(ctx);
    std::vector<std::vector<ItemId>> txns;
    for (size_t r = 0; r < ds.num_records(); ++r)
      txns.push_back(ds.items(r).raw());
    TransactionRecoding txn_identity = IdentityTransactionRecoding(
        txns, ds.item_dictionary().size(), ds.item_dictionary());
    WorkloadGenOptions options;
    options.num_queries = 25;
    options.seed = seed * 31;
    ASSERT_OK_AND_ASSIGN(Workload workload, GenerateWorkload(ds, options));
    ASSERT_OK_AND_ASSIGN(QueryEvaluator ev, QueryEvaluator::Create(ds, &ctx));
    ASSERT_OK_AND_ASSIGN(BoundWorkload bound, ev.BindWorkload(workload));
    ASSERT_OK_AND_ASSIGN(RecodingCache cache,
                         ev.BuildRecodingCache(&rel_identity, &txn_identity));
    ASSERT_OK_AND_ASSIGN(AreReport report,
                         ev.Are(bound, &rel_identity, &txn_identity, cache));
    EXPECT_NEAR(report.are, 0.0, 1e-9) << "seed " << seed;
  }
}

// --- CSV: random tables round-trip -------------------------------------------

TEST(CsvStressTest, RandomTablesRoundTrip) {
  Rng rng(4242);
  const std::string alphabet = "ab,\"\n '#;x0";
  for (int trial = 0; trial < 20; ++trial) {
    size_t rows = 1 + static_cast<size_t>(rng.UniformInt(0, 6));
    size_t cols = 1 + static_cast<size_t>(rng.UniformInt(0, 4));
    csv::CsvTable table(rows, std::vector<std::string>(cols));
    for (auto& row : table) {
      for (auto& cell : row) {
        size_t len = static_cast<size_t>(rng.UniformInt(0, 8));
        for (size_t i = 0; i < len; ++i) {
          cell += alphabet[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(alphabet.size() - 1)))];
        }
      }
    }
    // Cells of pure whitespace or starting '#' in column 0 can collide with
    // blank-line/comment skipping; the writer quotes whenever needed, but a
    // row whose single cell is empty is legitimately dropped. Skip only the
    // truly ambiguous case: a 1-column row with an empty cell.
    if (cols == 1) {
      bool ambiguous = false;
      for (auto& row : table) {
        if (Trim(row[0]).empty()) ambiguous = true;
      }
      if (ambiguous) continue;
    }
    std::string text = csv::WriteCsv(table);
    ASSERT_OK_AND_ASSIGN(csv::CsvTable back, csv::ParseCsv(text));
    ASSERT_EQ(back, table) << "trial " << trial << " text:\n" << text;
  }
}

}  // namespace
}  // namespace secreta
