// Tests for the query acceleration structures (RecordBitmap, QueryIndex) and
// the randomized equivalence property: the indexed evaluation path
// (BindWorkload + Are) must agree bit-for-bit with the scan oracles
// (ExactCount / EstimatedCount) across random datasets, hierarchies,
// recodings and workloads.

#include "query/query_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "algo/rt/rt_anonymizer.h"
#include "common/parallel.h"
#include "core/recoding.h"
#include "engine/registry.h"
#include "hierarchy/hierarchy_builder.h"
#include "query/query_evaluator.h"
#include "query/workload_generator.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

TEST(RecordBitmapTest, SetTestCountIterate) {
  RecordBitmap bm(130);
  EXPECT_EQ(bm.Count(), 0u);
  for (size_t r : {size_t{0}, size_t{63}, size_t{64}, size_t{100}, size_t{129}}) {
    bm.Set(r);
  }
  EXPECT_EQ(bm.Count(), 5u);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_FALSE(bm.Test(65));
  std::vector<size_t> seen;
  bm.ForEachSet([&](size_t r) { seen.push_back(r); });
  EXPECT_EQ(seen, (std::vector<size_t>{0, 63, 64, 100, 129}));
}

TEST(RecordBitmapTest, OnesConstructorClearsTailBits) {
  RecordBitmap all(70, /*ones=*/true);
  EXPECT_EQ(all.Count(), 70u);
  size_t visited = 0;
  all.ForEachSet([&](size_t r) {
    EXPECT_LT(r, 70u);
    ++visited;
  });
  EXPECT_EQ(visited, 70u);
}

TEST(RecordBitmapTest, AndWithIntersects) {
  RecordBitmap a(200), b(200);
  for (size_t r = 0; r < 200; r += 2) a.Set(r);
  for (size_t r = 0; r < 200; r += 3) b.Set(r);
  a.AndWith(b);
  size_t expected = 0;
  for (size_t r = 0; r < 200; ++r) {
    if (r % 6 == 0) ++expected;
    EXPECT_EQ(a.Test(r), r % 6 == 0) << r;
  }
  EXPECT_EQ(a.Count(), expected);
}

TEST(QueryIndexTest, PostingsMatchScan) {
  Dataset ds = testing::SmallRtDataset(137, /*seed=*/11);
  QueryIndex index = QueryIndex::Build(ds);
  ASSERT_EQ(index.num_records(), ds.num_records());
  for (size_t col = 0; col < ds.num_relational(); ++col) {
    for (size_t v = 0; v < ds.dictionary(col).size(); ++v) {
      ValueId id = static_cast<ValueId>(v);
      std::vector<uint32_t> expected;
      for (size_t r = 0; r < ds.num_records(); ++r) {
        if (ds.value(r, col).raw() == id) expected.push_back(static_cast<uint32_t>(r));
      }
      size_t n = 0;
      const uint32_t* got = index.postings(col, id, &n);
      ASSERT_EQ(n, expected.size());
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), got));
    }
  }
  for (size_t i = 0; i < ds.item_dictionary().size(); ++i) {
    ItemId item = static_cast<ItemId>(i);
    std::vector<uint32_t> expected;
    for (size_t r = 0; r < ds.num_records(); ++r) {
      const auto& items = ds.items(r).raw();
      if (std::binary_search(items.begin(), items.end(), item)) {
        expected.push_back(static_cast<uint32_t>(r));
      }
    }
    size_t n = 0;
    const uint32_t* got = index.item_postings(item, &n);
    EXPECT_EQ(std::vector<uint32_t>(got, got + n), expected) << "item " << i;
  }
}

TEST(QueryIndexTest, ClauseBitmapAndIntersectionMatchScan) {
  Dataset ds = testing::SmallRtDataset(164, /*seed=*/3);
  QueryIndex index = QueryIndex::Build(ds);
  std::mt19937_64 rng(17);
  for (size_t col = 0; col < ds.num_relational(); ++col) {
    std::vector<char> match(ds.dictionary(col).size());
    for (auto& m : match) m = rng() % 2;
    RecordBitmap bm = index.ClauseBitmap(col, match);
    size_t count = 0;
    for (size_t r = 0; r < ds.num_records(); ++r) {
      bool expected = match[static_cast<size_t>(ds.value(r, col).raw())] != 0;
      EXPECT_EQ(bm.Test(r), expected) << "col " << col << " rec " << r;
      count += expected;
    }
    EXPECT_EQ(bm.Count(), count);
  }
  for (int trial = 0; trial < 20; ++trial) {
    size_t k = 1 + rng() % 3;
    std::vector<ItemId> items;
    for (size_t j = 0; j < k; ++j) {
      items.push_back(static_cast<ItemId>(rng() % ds.item_dictionary().size()));
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    std::vector<uint32_t> expected;
    for (size_t r = 0; r < ds.num_records(); ++r) {
      const auto& txn = ds.items(r).raw();
      bool all = true;
      for (ItemId item : items) {
        all = all && std::binary_search(txn.begin(), txn.end(), item);
      }
      if (all) expected.push_back(static_cast<uint32_t>(r));
    }
    EXPECT_EQ(index.ItemIntersection(items), expected);
  }
}

// A global transaction recoding grouping items into runs of `group_size`.
TransactionRecoding GroupedTransactionRecoding(const Dataset& ds,
                                               size_t group_size) {
  TransactionRecoding recoding;
  size_t num_items = ds.item_dictionary().size();
  recoding.item_map.assign(num_items, kSuppressedGen);
  for (size_t start = 0; start < num_items; start += group_size) {
    std::vector<ItemId> covers;
    for (size_t i = start; i < std::min(start + group_size, num_items); ++i) {
      covers.push_back(static_cast<ItemId>(i));
    }
    int32_t gen = recoding.AddGen("g" + std::to_string(start), covers);
    for (ItemId item : covers) {
      recoding.item_map[static_cast<size_t>(item)] = gen;
    }
  }
  for (size_t r = 0; r < ds.num_records(); ++r) {
    std::vector<int32_t> rec;
    for (ItemId item : ds.items(r).raw()) {
      rec.push_back(recoding.item_map[static_cast<size_t>(item)]);
    }
    std::sort(rec.begin(), rec.end());
    rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
    recoding.records.push_back(std::move(rec));
  }
  return recoding;
}

// A local (no item_map) recoding with overlapping covers: even records use
// gens pairing items (0,1)(2,3)..., odd records use the offset pairing
// (1,2)(3,4)..., so most items are covered by two different gens.
TransactionRecoding OverlappingLocalRecoding(const Dataset& ds) {
  TransactionRecoding recoding;
  size_t num_items = ds.item_dictionary().size();
  std::vector<int32_t> even_map(num_items, kSuppressedGen);
  std::vector<int32_t> odd_map(num_items, kSuppressedGen);
  for (size_t start = 0; start < num_items; start += 2) {
    std::vector<ItemId> covers{static_cast<ItemId>(start)};
    if (start + 1 < num_items) covers.push_back(static_cast<ItemId>(start + 1));
    int32_t gen = recoding.AddGen("e" + std::to_string(start), covers);
    for (ItemId item : covers) even_map[static_cast<size_t>(item)] = gen;
  }
  odd_map[0] = recoding.AddGen("o0", {static_cast<ItemId>(0)});
  for (size_t start = 1; start < num_items; start += 2) {
    std::vector<ItemId> covers{static_cast<ItemId>(start)};
    if (start + 1 < num_items) covers.push_back(static_cast<ItemId>(start + 1));
    int32_t gen = recoding.AddGen("o" + std::to_string(start), covers);
    for (ItemId item : covers) odd_map[static_cast<size_t>(item)] = gen;
  }
  for (size_t r = 0; r < ds.num_records(); ++r) {
    const std::vector<int32_t>& map = (r % 2 == 0) ? even_map : odd_map;
    std::vector<int32_t> rec;
    for (ItemId item : ds.items(r).raw()) {
      rec.push_back(map[static_cast<size_t>(item)]);
    }
    std::sort(rec.begin(), rec.end());
    rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
    recoding.records.push_back(std::move(rec));
  }
  return recoding;  // item_map left empty: local recoding
}

Workload RandomWorkload(const Dataset& ds, uint64_t seed, int items_per_query) {
  WorkloadGenOptions options;
  options.num_queries = 40;
  options.relational_clauses = 1 + static_cast<int>(seed % 3);
  options.items_per_query = items_per_query;
  options.domain_fraction = 0.15 + 0.2 * static_cast<double>(seed % 4);
  options.seed = seed;
  Workload wl = std::move(GenerateWorkload(ds, options)).ValueOrDie();
  // Add hand-written edge cases: empty-result range, full-domain range.
  for (const char* text : {"Age:18..19", "Age:20..59"}) {
    auto q = CountQuery::Parse(text);
    if (q.ok()) wl.Add(std::move(q).value());
  }
  return wl;
}

// The equivalence property: every exact count precomputed by BindWorkload and
// every estimate produced by the indexed Are must equal the scan oracles
// exactly (EXPECT_EQ on doubles — same arithmetic, not just close).
TEST(IndexedEvaluationProperty, MatchesScanOraclesBitForBit) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    size_t n = 50 + 113 * seed;
    Dataset ds = testing::SmallRtDataset(n, seed);
    auto hierarchies = std::move(BuildAllColumnHierarchies(ds)).ValueOrDie();
    RelationalContext ctx =
        std::move(RelationalContext::Create(ds, hierarchies)).ValueOrDie();
    QueryEvaluator ev =
        std::move(QueryEvaluator::Create(ds, &ctx)).ValueOrDie();

    std::mt19937_64 rng(seed * 77 + 5);
    std::vector<int> levels(ctx.num_qi());
    for (auto& level : levels) level = static_cast<int>(rng() % 3);
    RelationalRecoding rel = ApplyFullDomainLevels(ctx, levels);
    TransactionRecoding global =
        GroupedTransactionRecoding(ds, 1 + seed % 3);
    TransactionRecoding local = OverlappingLocalRecoding(ds);
    // What Comparison mode evaluates: an RT pipeline's output, a local
    // transaction recoding beside a relational one.
    Hierarchy item_h = std::move(BuildItemHierarchy(ds)).ValueOrDie();
    TransactionContext txn_ctx =
        std::move(TransactionContext::Create(ds, &item_h)).ValueOrDie();
    RtAnonymizer pipeline(MakeRelationalAnonymizer("Cluster").ValueOrDie(),
                          MakeTransactionAnonymizer("Apriori").ValueOrDie(),
                          MergerKind::kRTmerger);
    AnonParams params;
    params.k = 3;
    RtResult rt =
        std::move(pipeline.Anonymize(ctx, txn_ctx, params)).ValueOrDie();
    ASSERT_TRUE(rt.transaction.item_map.empty());

    Workload wl = RandomWorkload(ds, seed, /*items_per_query=*/2);
    ASSERT_OK_AND_ASSIGN(BoundWorkload bound, ev.BindWorkload(wl));
    ASSERT_EQ(bound.size(), wl.size());

    // Exact counts: indexed vs scan oracle.
    for (size_t i = 0; i < wl.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(double oracle, ev.ExactCount(wl.queries()[i]));
      EXPECT_EQ(bound.exact_count(i), oracle) << wl.queries()[i].ToString();
    }

    // Estimates: indexed Are vs scan oracle, across recoding combinations
    // (relational only, global transaction, local transaction, both sides).
    struct Case {
      const char* name;
      const RelationalRecoding* rel;
      const TransactionRecoding* txn;
    };
    for (const Case& c : std::initializer_list<Case>{
             {"rel-only", &rel, nullptr},
             {"txn-global", nullptr, &global},
             {"txn-local", nullptr, &local},
             {"rel+txn", &rel, &global},
             {"rel+txn-local", &rel, &local},
             {"rt-pipeline", &rt.relational, &rt.transaction}}) {
      SCOPED_TRACE(c.name);
      ASSERT_OK_AND_ASSIGN(AreReport fast,
                           ev.Are(bound, c.rel, c.txn, nullptr, nullptr));
      ASSERT_EQ(fast.actual.size(), wl.size());
      double total = 0;
      for (size_t i = 0; i < wl.size(); ++i) {
        const CountQuery& q = wl.queries()[i];
        ASSERT_OK_AND_ASSIGN(double exact, ev.ExactCount(q));
        ASSERT_OK_AND_ASSIGN(double est, ev.EstimatedCount(q, c.rel, c.txn));
        EXPECT_EQ(fast.actual[i], exact) << q.ToString();
        EXPECT_EQ(fast.estimated[i], est) << q.ToString();
        total += std::fabs(exact - est) / std::max(exact, 1.0);
      }
      EXPECT_EQ(fast.are, total / static_cast<double>(wl.size()));

      // The parallel path must produce the same bits as the serial path.
      ASSERT_OK_AND_ASSIGN(
          AreReport parallel,
          ev.Are(bound, c.rel, c.txn, &SharedEvalPool(), nullptr));
      EXPECT_EQ(parallel.are, fast.are);
      EXPECT_EQ(parallel.actual, fast.actual);
      EXPECT_EQ(parallel.estimated, fast.estimated);
    }
  }
}

// Item-only workloads exercise the item-coverage path with no clause masks
// at all.
TEST(IndexedEvaluationProperty, ItemOnlyWorkloadMatchesOracle) {
  Dataset ds = testing::SmallRtDataset(222, /*seed=*/9);
  QueryEvaluator ev =
      std::move(QueryEvaluator::Create(ds, nullptr)).ValueOrDie();
  WorkloadGenOptions options;
  options.num_queries = 30;
  options.relational_clauses = 0;
  options.items_per_query = 3;
  options.seed = 21;
  ASSERT_OK_AND_ASSIGN(Workload wl, GenerateWorkload(ds, options));
  ASSERT_OK_AND_ASSIGN(BoundWorkload bound, ev.BindWorkload(wl));
  TransactionRecoding global = GroupedTransactionRecoding(ds, 2);
  ASSERT_OK_AND_ASSIGN(AreReport fast,
                       ev.Are(bound, nullptr, &global, nullptr, nullptr));
  for (size_t i = 0; i < wl.size(); ++i) {
    const CountQuery& q = wl.queries()[i];
    ASSERT_OK_AND_ASSIGN(double exact, ev.ExactCount(q));
    ASSERT_OK_AND_ASSIGN(double est, ev.EstimatedCount(q, nullptr, &global));
    EXPECT_EQ(fast.actual[i], exact) << q.ToString();
    EXPECT_EQ(fast.estimated[i], est) << q.ToString();
  }
}

TEST(IndexedEvaluationTest, BindingIsParallelSafe) {
  Dataset ds = testing::SmallRtDataset(180, /*seed=*/6);
  auto hierarchies = std::move(BuildAllColumnHierarchies(ds)).ValueOrDie();
  RelationalContext ctx =
      std::move(RelationalContext::Create(ds, hierarchies)).ValueOrDie();
  QueryEvaluator ev = std::move(QueryEvaluator::Create(ds, &ctx)).ValueOrDie();
  Workload wl = RandomWorkload(ds, 13, /*items_per_query=*/1);
  ASSERT_OK_AND_ASSIGN(BoundWorkload serial, ev.BindWorkload(wl));
  ASSERT_OK_AND_ASSIGN(BoundWorkload parallel,
                       ev.BindWorkload(wl, &SharedEvalPool()));
  EXPECT_EQ(serial.exact_counts(), parallel.exact_counts());
}

TEST(IndexedEvaluationTest, CancelledTokenStopsAre) {
  Dataset ds = testing::SmallRtDataset(100, /*seed=*/2);
  auto hierarchies = std::move(BuildAllColumnHierarchies(ds)).ValueOrDie();
  RelationalContext ctx =
      std::move(RelationalContext::Create(ds, hierarchies)).ValueOrDie();
  QueryEvaluator ev = std::move(QueryEvaluator::Create(ds, &ctx)).ValueOrDie();
  RelationalRecoding identity = IdentityRecoding(ctx);
  Workload wl = RandomWorkload(ds, 4, /*items_per_query=*/0);
  ASSERT_OK_AND_ASSIGN(BoundWorkload bound, ev.BindWorkload(wl));
  CancellationToken token;
  token.Cancel();
  Result<AreReport> result =
      ev.Are(bound, &identity, nullptr, nullptr, &token);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(IndexedEvaluationTest, EmptyWorkloadRejected) {
  Dataset ds = testing::SmallRtDataset(40, /*seed=*/1);
  QueryEvaluator ev =
      std::move(QueryEvaluator::Create(ds, nullptr)).ValueOrDie();
  Workload wl;
  ASSERT_OK_AND_ASSIGN(BoundWorkload bound, ev.BindWorkload(wl));
  EXPECT_TRUE(bound.empty());
  EXPECT_FALSE(ev.Are(bound, nullptr, nullptr, nullptr, nullptr).ok());
}

}  // namespace
}  // namespace secreta
