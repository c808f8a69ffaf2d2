// Unit tests for COUNT queries, workloads, the evaluator and ARE. The
// hand-computed counts and estimates are checked against both the scan
// oracle (tests/oracle) and the production bind + Are path.

#include "query/query.h"

#include <gtest/gtest.h>

#include "core/recoding.h"
#include "hierarchy/hierarchy_builder.h"
#include "query/query_evaluator.h"
#include "query/workload_generator.h"
#include "tests/oracle/are_oracle.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

Dataset QueryDataset() {
  csv::CsvTable t{
      {"Age", "Gender", "Items"}, {"20", "M", "a b"},   {"30", "F", "a"},
      {"40", "M", "b c"},         {"50", "F", "a b c"}, {"60", "M", "c"},
  };
  return std::move(Dataset::FromCsvInferred(t)).ValueOrDie();
}

TEST(QueryParseTest, RangeValuesAndItems) {
  ASSERT_OK_AND_ASSIGN(CountQuery q,
                       CountQuery::Parse("Age:20..40;Gender:M|F;items:a b"));
  ASSERT_EQ(q.relational.size(), 2u);
  EXPECT_TRUE(q.relational[0].is_range);
  EXPECT_DOUBLE_EQ(q.relational[0].lo, 20);
  EXPECT_DOUBLE_EQ(q.relational[0].hi, 40);
  EXPECT_EQ(q.relational[1].values.size(), 2u);
  EXPECT_EQ(q.items.size(), 2u);
}

TEST(QueryParseTest, RoundTrip) {
  ASSERT_OK_AND_ASSIGN(CountQuery q,
                       CountQuery::Parse("Age:20..40;items:a"));
  ASSERT_OK_AND_ASSIGN(CountQuery q2, CountQuery::Parse(q.ToString()));
  EXPECT_EQ(q2.ToString(), q.ToString());
}

TEST(QueryParseTest, Malformed) {
  EXPECT_FALSE(CountQuery::Parse("").ok());
  EXPECT_FALSE(CountQuery::Parse("noclause").ok());
  EXPECT_FALSE(CountQuery::Parse("Age:").ok());
  EXPECT_FALSE(CountQuery::Parse("Age:50..20").ok());
}

TEST(WorkloadTest, ParseEditSave) {
  ASSERT_OK_AND_ASSIGN(Workload wl,
                       Workload::Parse("Age:20..30\n# note\nitems:a\n"));
  EXPECT_EQ(wl.size(), 2u);
  ASSERT_OK(wl.Remove(0));
  EXPECT_EQ(wl.size(), 1u);
  ASSERT_OK_AND_ASSIGN(CountQuery q, CountQuery::Parse("Gender:M"));
  wl.Add(q);
  ASSERT_OK(wl.Replace(0, q));
  EXPECT_FALSE(wl.Remove(9).ok());
  ASSERT_OK_AND_ASSIGN(Workload wl2, Workload::Parse(wl.Format()));
  EXPECT_EQ(wl2.Format(), wl.Format());
}

// The production path on one query: BindWorkload, BuildRecodingCache, Are.
// report.actual[0] is the exact count, report.estimated[0] the estimate.
Result<AreReport> IndexedReport(const QueryEvaluator& ev, const CountQuery& q,
                                const RelationalRecoding* relational,
                                const TransactionRecoding* transaction) {
  SECRETA_ASSIGN_OR_RETURN(BoundWorkload bound,
                           ev.BindWorkload(Workload({q})));
  SECRETA_ASSIGN_OR_RETURN(RecodingCache cache,
                           ev.BuildRecodingCache(relational, transaction));
  return ev.Are(bound, relational, transaction, cache);
}

TEST(QueryEvaluatorTest, ExactCounts) {
  Dataset ds = QueryDataset();
  ASSERT_OK_AND_ASSIGN(QueryEvaluator ev, QueryEvaluator::Create(ds, nullptr));
  for (auto [text, expected] : std::initializer_list<std::pair<const char*, double>>{
           {"Age:20..40", 3}, {"Gender:M;items:b", 2}, {"items:a b c", 1},
           {"items:zz", 0}}) {
    ASSERT_OK_AND_ASSIGN(CountQuery q, CountQuery::Parse(text));
    EXPECT_EQ(oracle::ExactCount(ds, q).value(), expected) << text;
    ASSERT_OK_AND_ASSIGN(BoundWorkload bound, ev.BindWorkload(Workload({q})));
    EXPECT_EQ(bound.exact_count(0), expected) << text;
  }
  ASSERT_OK_AND_ASSIGN(CountQuery q5, CountQuery::Parse("Nope:1..2"));
  EXPECT_FALSE(oracle::ExactCount(ds, q5).ok());
}

// Binding errors surface from the production BindWorkload itself, with the
// oracle's codes.
TEST(QueryEvaluatorTest, BindWorkloadRejectsUnknownAttribute) {
  Dataset ds = QueryDataset();
  ASSERT_OK_AND_ASSIGN(QueryEvaluator ev, QueryEvaluator::Create(ds, nullptr));
  ASSERT_OK_AND_ASSIGN(Workload wl, Workload::Parse("Age:20..40\nNope:1..2\n"));
  Result<BoundWorkload> bound = ev.BindWorkload(wl);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(oracle::ExactCount(ds, wl.queries()[1]).status().code(),
            StatusCode::kNotFound);
}

TEST(QueryEvaluatorTest, BindWorkloadRejectsRangeOnCategoricalAttribute) {
  Dataset ds = QueryDataset();
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  ASSERT_OK_AND_ASSIGN(QueryEvaluator ev, QueryEvaluator::Create(ds, &ctx));
  ASSERT_OK_AND_ASSIGN(CountQuery q, CountQuery::Parse("Gender:1..2"));
  Result<BoundWorkload> bound = ev.BindWorkload(Workload({q}));
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(oracle::ExactCount(ds, q).status().code(),
            StatusCode::kInvalidArgument);
  RelationalRecoding identity = IdentityRecoding(ctx);
  EXPECT_EQ(oracle::EstimatedCount(ds, &ctx, q, &identity, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryEvaluatorTest, RelationalRecodingNeedsContext) {
  Dataset ds = QueryDataset();
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  RelationalRecoding identity = IdentityRecoding(ctx);
  ASSERT_OK_AND_ASSIGN(QueryEvaluator ev, QueryEvaluator::Create(ds, nullptr));
  ASSERT_OK_AND_ASSIGN(CountQuery q, CountQuery::Parse("Gender:F"));
  EXPECT_EQ(IndexedReport(ev, q, &identity, nullptr).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(oracle::EstimatedCount(ds, nullptr, q, &identity, nullptr)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryEvaluatorTest, EstimateEqualsExactOnIdentityRecoding) {
  Dataset ds = QueryDataset();
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  RelationalRecoding identity = IdentityRecoding(ctx);
  ASSERT_OK_AND_ASSIGN(QueryEvaluator ev, QueryEvaluator::Create(ds, &ctx));
  for (auto [text, expected] : std::initializer_list<std::pair<const char*, double>>{
           {"Age:20..40", 3}, {"Gender:F", 2}, {"Age:30..60;Gender:M", 2}}) {
    ASSERT_OK_AND_ASSIGN(CountQuery q, CountQuery::Parse(text));
    ASSERT_OK_AND_ASSIGN(double est,
                         oracle::EstimatedCount(ds, &ctx, q, &identity, nullptr));
    EXPECT_NEAR(est, expected, 1e-9) << text;
    ASSERT_OK_AND_ASSIGN(AreReport report,
                         IndexedReport(ev, q, &identity, nullptr));
    EXPECT_EQ(report.actual[0], expected) << text;
    EXPECT_NEAR(report.estimated[0], expected, 1e-9) << text;
  }
}

TEST(QueryEvaluatorTest, FullGeneralizationGivesUniformEstimate) {
  Dataset ds = QueryDataset();
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  // Everything to the root.
  std::vector<int> levels(ctx.num_qi(), 100);
  RelationalRecoding all_root = ApplyFullDomainLevels(ctx, levels);
  ASSERT_OK_AND_ASSIGN(QueryEvaluator ev, QueryEvaluator::Create(ds, &ctx));
  // Age domain has 5 distinct values; a clause covering 3 of them should
  // estimate n * 3/5 = 3.
  ASSERT_OK_AND_ASSIGN(CountQuery q, CountQuery::Parse("Age:20..40"));
  ASSERT_OK_AND_ASSIGN(double est,
                       oracle::EstimatedCount(ds, &ctx, q, &all_root, nullptr));
  EXPECT_NEAR(est, 3.0, 1e-9);
  ASSERT_OK_AND_ASSIGN(AreReport report,
                       IndexedReport(ev, q, &all_root, nullptr));
  EXPECT_NEAR(report.estimated[0], 3.0, 1e-9);
}

TEST(QueryEvaluatorTest, AreZeroOnIdentity) {
  Dataset ds = QueryDataset();
  ASSERT_OK_AND_ASSIGN(auto hierarchies, BuildAllColumnHierarchies(ds));
  ASSERT_OK_AND_ASSIGN(RelationalContext ctx,
                       RelationalContext::Create(ds, hierarchies));
  RelationalRecoding identity = IdentityRecoding(ctx);
  ASSERT_OK_AND_ASSIGN(Workload wl, Workload::Parse("Age:20..40\nGender:F\n"));
  ASSERT_OK_AND_ASSIGN(QueryEvaluator ev, QueryEvaluator::Create(ds, &ctx));
  ASSERT_OK_AND_ASSIGN(BoundWorkload bound, ev.BindWorkload(wl));
  ASSERT_OK_AND_ASSIGN(RecodingCache cache,
                       ev.BuildRecodingCache(&identity, nullptr));
  ASSERT_OK_AND_ASSIGN(AreReport report,
                       ev.Are(bound, &identity, nullptr, cache));
  EXPECT_NEAR(report.are, 0.0, 1e-9);
  EXPECT_EQ(report.actual.size(), 2u);
}

TEST(QueryEvaluatorTest, ItemEstimateUsesCoverShare) {
  Dataset ds = QueryDataset();
  // Merge items a and b into one gen everywhere.
  std::vector<std::vector<ItemId>> txns;
  for (size_t r = 0; r < ds.num_records(); ++r) txns.push_back(ds.items(r).raw());
  ASSERT_OK_AND_ASSIGN(ItemId a, ds.item_dictionary().Lookup("a"));
  ASSERT_OK_AND_ASSIGN(ItemId b, ds.item_dictionary().Lookup("b"));
  ASSERT_OK_AND_ASSIGN(ItemId c, ds.item_dictionary().Lookup("c"));
  TransactionRecoding recoding;
  std::vector<ItemId> ab{std::min(a, b), std::max(a, b)};
  int32_t g_ab = recoding.AddGen("{a,b}", ab);
  int32_t g_c = recoding.AddGen("c", {c});
  recoding.item_map.assign(ds.item_dictionary().size(), kSuppressedGen);
  recoding.item_map[static_cast<size_t>(a)] = g_ab;
  recoding.item_map[static_cast<size_t>(b)] = g_ab;
  recoding.item_map[static_cast<size_t>(c)] = g_c;
  for (const auto& txn : txns) {
    std::vector<int32_t> rec;
    for (ItemId item : txn) rec.push_back(recoding.item_map[item]);
    std::sort(rec.begin(), rec.end());
    rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
    recoding.records.push_back(rec);
  }
  ASSERT_OK_AND_ASSIGN(QueryEvaluator ev, QueryEvaluator::Create(ds, nullptr));
  ASSERT_OK_AND_ASSIGN(CountQuery q, CountQuery::Parse("items:a"));
  // Records containing {a,b}: 4 of 5; each contributes 1/2.
  ASSERT_OK_AND_ASSIGN(double est,
                       oracle::EstimatedCount(ds, nullptr, q, nullptr, &recoding));
  EXPECT_NEAR(est, 2.0, 1e-9);
  ASSERT_OK_AND_ASSIGN(AreReport global_report,
                       IndexedReport(ev, q, nullptr, &recoding));
  EXPECT_NEAR(global_report.estimated[0], 2.0, 1e-9);

  // A local recoding (no item_map) with overlapping gens: row 0 ("a b")
  // publishes a as itself and b as {a,b,c}, so it holds two gens covering
  // a, and takes the share of the smaller gen id, {a,b,c}'s 1/3.
  TransactionRecoding local;
  int32_t g_abc = local.AddGen("{a,b,c}", {a, b, c});
  int32_t g_a = local.AddGen("a", {a});
  local.records = {{g_abc, g_a}, {g_a}, {g_abc}, {g_abc}, {g_abc}};
  const double local_expected = 1.0 / 3 + 1 + 1.0 / 3 + 1.0 / 3 + 1.0 / 3;
  ASSERT_OK_AND_ASSIGN(double local_est,
                       oracle::EstimatedCount(ds, nullptr, q, nullptr, &local));
  EXPECT_NEAR(local_est, local_expected, 1e-9);
  ASSERT_OK_AND_ASSIGN(AreReport local_report,
                       IndexedReport(ev, q, nullptr, &local));
  EXPECT_NEAR(local_report.estimated[0], local_expected, 1e-9);
}

// The identity recodings of `ds` on both sides.
struct IdentityRecodings {
  RelationalRecoding relational;
  TransactionRecoding transaction;
};
IdentityRecodings IdentityOf(const Dataset& ds, const RelationalContext& ctx) {
  std::vector<std::vector<ItemId>> txns;
  for (size_t r = 0; r < ds.num_records(); ++r) txns.push_back(ds.items(r).raw());
  return {IdentityRecoding(ctx),
          IdentityTransactionRecoding(txns, ds.item_dictionary().size(),
                                      ds.item_dictionary())};
}

// Recodings and caches are indexed by the evaluator's record ids: one over
// more or fewer records than its dataset is InvalidArgument, on either side,
// rather than a read or write past the dataset's records.
TEST(QueryEvaluatorTest, RecodingOfAnotherRecordCountIsRejected) {
  Dataset small = testing::SmallRtDataset(100, /*seed=*/3);
  Dataset large = testing::SmallRtDataset(200, /*seed=*/3);
  ASSERT_OK_AND_ASSIGN(auto small_h, BuildAllColumnHierarchies(small));
  ASSERT_OK_AND_ASSIGN(auto large_h, BuildAllColumnHierarchies(large));
  ASSERT_OK_AND_ASSIGN(RelationalContext small_ctx,
                       RelationalContext::Create(small, small_h));
  ASSERT_OK_AND_ASSIGN(RelationalContext large_ctx,
                       RelationalContext::Create(large, large_h));
  ASSERT_OK_AND_ASSIGN(QueryEvaluator small_ev,
                       QueryEvaluator::Create(small, &small_ctx));
  ASSERT_OK_AND_ASSIGN(QueryEvaluator large_ev,
                       QueryEvaluator::Create(large, &large_ctx));
  IdentityRecodings small_id = IdentityOf(small, small_ctx);
  IdentityRecodings large_id = IdentityOf(large, large_ctx);
  ASSERT_OK_AND_ASSIGN(Workload wl, Workload::Parse("Age:20..40\n"));

  struct Direction {
    const char* name;
    const QueryEvaluator* ev;
    const IdentityRecodings* own;
    const IdentityRecodings* other;
  };
  for (const Direction& d : {Direction{"more records", &small_ev, &small_id,
                                       &large_id},
                             Direction{"fewer records", &large_ev, &large_id,
                                       &small_id}}) {
    SCOPED_TRACE(d.name);
    EXPECT_EQ(d.ev->BuildRecodingCache(&d.other->relational, nullptr)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(d.ev->BuildRecodingCache(nullptr, &d.other->transaction)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(d.ev->BuildRecodingCache(&d.own->relational,
                                       &d.other->transaction)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    // Are: a cache built by the other evaluator, and recodings of the
    // other dataset beside the evaluator's own cache.
    const QueryEvaluator* other_ev = d.ev == &small_ev ? &large_ev : &small_ev;
    ASSERT_OK_AND_ASSIGN(BoundWorkload bound, d.ev->BindWorkload(wl));
    ASSERT_OK_AND_ASSIGN(
        RecodingCache own_cache,
        d.ev->BuildRecodingCache(&d.own->relational, &d.own->transaction));
    ASSERT_OK_AND_ASSIGN(RecodingCache other_cache,
                         other_ev->BuildRecodingCache(&d.other->relational,
                                                      &d.other->transaction));
    EXPECT_OK(d.ev->Are(bound, &d.own->relational, &d.own->transaction,
                        own_cache)
                  .status());
    EXPECT_EQ(d.ev->Are(bound, &d.own->relational, &d.own->transaction,
                        other_cache)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(d.ev->Are(bound, &d.other->relational, nullptr, own_cache)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(d.ev->Are(bound, nullptr, &d.other->transaction, own_cache)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(WorkloadGeneratorTest, ProducesAnswerableQueries) {
  Dataset ds = testing::SmallRtDataset(150);
  WorkloadGenOptions options;
  options.num_queries = 30;
  ASSERT_OK_AND_ASSIGN(Workload wl, GenerateWorkload(ds, options));
  EXPECT_GE(wl.size(), 25u);
  size_t nonzero = 0;
  for (const auto& q : wl.queries()) {
    ASSERT_OK_AND_ASSIGN(double count, oracle::ExactCount(ds, q));
    if (count > 0) ++nonzero;
  }
  // Items are sampled from real records, so a healthy share must match.
  EXPECT_GE(nonzero, wl.size() / 4);
}

TEST(WorkloadGeneratorTest, Deterministic) {
  Dataset ds = testing::SmallRtDataset(80);
  WorkloadGenOptions options;
  options.num_queries = 10;
  options.seed = 99;
  ASSERT_OK_AND_ASSIGN(Workload w1, GenerateWorkload(ds, options));
  ASSERT_OK_AND_ASSIGN(Workload w2, GenerateWorkload(ds, options));
  EXPECT_EQ(w1.Format(), w2.Format());
}

TEST(WorkloadGeneratorTest, BadOptions) {
  Dataset ds = testing::SmallRtDataset(50);
  WorkloadGenOptions options;
  options.domain_fraction = 0;
  EXPECT_FALSE(GenerateWorkload(ds, options).ok());
}

}  // namespace
}  // namespace secreta
