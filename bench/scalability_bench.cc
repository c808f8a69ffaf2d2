// SCAL — efficiency of the 9 algorithms (paper Sec. 2.2: the system reports
// runtime for single and varying parameter execution). google-benchmark
// micro-benchmarks: each algorithm against dataset size, plus Incognito vs
// QI count and Apriori vs m (its known exponential knob).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <numeric>
#include <optional>

#include "algo/transaction/violation_walk.h"
#include "bench/bench_util.h"
#include "engine/registry.h"
#include "hierarchy/hierarchy_builder.h"

namespace secreta::bench {
namespace {

struct Fixture {
  Dataset dataset;
  std::vector<Hierarchy> hierarchies;
  Hierarchy item_hierarchy;
  std::optional<RelationalContext> rel;
  std::optional<TransactionContext> txn;

  explicit Fixture(size_t n) : dataset(BenchDataset(n)) {
    hierarchies =
        std::move(BuildAllColumnHierarchies(dataset)).ValueOrDie();
    item_hierarchy = std::move(BuildItemHierarchy(dataset)).ValueOrDie();
    rel.emplace(std::move(
        RelationalContext::Create(dataset, hierarchies)).ValueOrDie());
    txn.emplace(std::move(
        TransactionContext::Create(dataset, &item_hierarchy)).ValueOrDie());
  }
};

Fixture& SharedFixture(size_t n) {
  static std::map<size_t, std::unique_ptr<Fixture>> cache;
  auto& slot = cache[n];
  if (!slot) slot = std::make_unique<Fixture>(n);
  return *slot;
}

void BM_Relational(benchmark::State& state, const std::string& name) {
  Fixture& fx = SharedFixture(static_cast<size_t>(state.range(0)));
  auto algo = std::move(MakeRelationalAnonymizer(name)).ValueOrDie();
  AnonParams params;
  params.k = 5;
  for (auto _ : state) {
    auto result = algo->Anonymize(*fx.rel, params);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.dataset.num_records()));
}

void BM_Transaction(benchmark::State& state, const std::string& name) {
  Fixture& fx = SharedFixture(static_cast<size_t>(state.range(0)));
  auto algo = std::move(MakeTransactionAnonymizer(name)).ValueOrDie();
  AnonParams params;
  params.k = 5;
  params.m = 2;
  for (auto _ : state) {
    auto result = algo->Anonymize(*fx.txn, params);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.dataset.num_records()));
}

void BM_AprioriVsM(benchmark::State& state) {
  Fixture& fx = SharedFixture(1000);
  auto algo = std::move(MakeTransactionAnonymizer("Apriori")).ValueOrDie();
  AnonParams params;
  params.k = 5;
  params.m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = algo->Anonymize(*fx.txn, params);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
}

// The violation walk over per-key row lists ([10] Sec. 5's count-tree
// order, no tree) vs hash-enumeration support counting, both from the
// records: each pass builds the row lists, and with no cap the walk visits
// every itemset, as the hash enumeration counts every one.
void BM_ViolationWalk(benchmark::State& state) {
  Fixture& fx = SharedFixture(2000);
  std::vector<std::vector<int32_t>> records;
  for (size_t r = 0; r < fx.dataset.num_records(); ++r) {
    const auto& items = fx.dataset.items(r).raw();
    records.emplace_back(items.begin(), items.end());
  }
  int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<std::vector<uint32_t>> key_rows(
        fx.dataset.item_dictionary().size());
    for (size_t r = 0; r < records.size(); ++r) {
      for (int32_t key : records[r]) {
        key_rows[static_cast<size_t>(key)].push_back(static_cast<uint32_t>(r));
      }
    }
    auto violations = WalkKmViolations(key_rows, records, m, 5, SIZE_MAX);
    benchmark::DoNotOptimize(violations);
  }
}

void BM_NaiveCounting(benchmark::State& state) {
  Fixture& fx = SharedFixture(2000);
  std::vector<std::vector<int32_t>> records;
  for (size_t r = 0; r < fx.dataset.num_records(); ++r) {
    const auto& items = fx.dataset.items(r).raw();
    records.emplace_back(items.begin(), items.end());
  }
  int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto violations = FindKmViolations(records, 5, m, nullptr, 1);
    benchmark::DoNotOptimize(violations);
  }
}

void BM_RtPipeline(benchmark::State& state) {
  Fixture& fx = SharedFixture(static_cast<size_t>(state.range(0)));
  auto rel = std::move(MakeRelationalAnonymizer("Cluster")).ValueOrDie();
  auto txn = std::move(MakeTransactionAnonymizer("Apriori")).ValueOrDie();
  RtAnonymizer rt(rel, txn, MergerKind::kRTmerger);
  AnonParams params;
  params.k = 5;
  params.m = 2;
  params.delta = 0.35;
  for (auto _ : state) {
    auto result = rt.Anonymize(*fx.rel, *fx.txn, params);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
}

}  // namespace
}  // namespace secreta::bench

int main(int argc, char** argv) {
  using secreta::bench::BM_AprioriVsM;
  using secreta::bench::BM_Relational;
  using secreta::bench::BM_RtPipeline;
  using secreta::bench::BM_Transaction;
  for (const std::string& name : secreta::RelationalAlgorithmNames()) {
    benchmark::RegisterBenchmark(("BM_Relational/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_Relational(s, name);
                                 })
        ->Arg(500)
        ->Arg(2000)
        ->Unit(benchmark::kMillisecond);
  }
  for (const std::string& name : secreta::TransactionAlgorithmNames()) {
    benchmark::RegisterBenchmark(("BM_Transaction/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_Transaction(s, name);
                                 })
        ->Arg(500)
        ->Arg(2000)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("BM_Apriori_vs_m", BM_AprioriVsM)
      ->DenseRange(1, 3)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_ViolationWalk",
                               secreta::bench::BM_ViolationWalk)
      ->DenseRange(1, 3)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_NaiveCounting",
                               secreta::bench::BM_NaiveCounting)
      ->DenseRange(1, 3)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_RtPipeline", BM_RtPipeline)
      ->Arg(500)
      ->Arg(2000)
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
